#include "obs/metrics.h"

#include <algorithm>
#include <bit>

#include "obs/json.h"

namespace cheri::obs
{

void
Histogram::record(u64 v)
{
    ++buckets[bucketOf(v)];
    ++count;
    sum += v;
    min = std::min(min, v);
    max = std::max(max, v);
}

unsigned
Histogram::bucketOf(u64 v)
{
    unsigned b = static_cast<unsigned>(std::bit_width(v));
    return std::min(b, numBuckets - 1);
}

u64
Histogram::bucketLo(unsigned i)
{
    return i == 0 ? 0 : u64{1} << (i - 1);
}

void
Metrics::recordSyscall(u64 num, Abi abi, u64 cycles, bool failed)
{
    if (num >= numSysNums)
        num = 0; // unknown numbers accumulate in the invalid slot
    SyscallStats &s = sys[abiIndex(abi)][num];
    ++s.calls;
    if (failed)
        ++s.errors;
    s.cycles.record(cycles);
}

const SyscallStats &
Metrics::syscall(u64 num, Abi abi) const
{
    return sys[abiIndex(abi)][num < numSysNums ? num : 0];
}

void
Metrics::recordFault(CapFault cause, u64 pc, u64 addr,
                     const Capability *via, Abi abi)
{
    unsigned ci = static_cast<unsigned>(cause);
    if (ci < faultsByCause.size())
        ++faultsByCause[ci];
    if (_faults.size() >= maxFaultRecords) {
        ++faultsDropped;
        return;
    }
    FaultRecord rec;
    rec.cause = cause;
    rec.pc = pc;
    rec.addr = addr;
    rec.abi = abi;
    rec.sysnum = static_cast<u16>(currentSys);
    if (via) {
        // Exact match on the capability's bounds first; otherwise the
        // tightest recorded region containing it (a narrowed child of
        // a traced allocation).
        auto it = provenance.find({via->base(), via->length()});
        if (it != provenance.end()) {
            rec.provenance = it->second;
            rec.provenanceKnown = true;
        } else {
            u64 best = ~u64{0};
            for (const auto &[range, src] : provenance) {
                const auto &[rbase, rlen] = range;
                if (rbase <= via->base() && via->length() <= rlen &&
                    via->base() - rbase <= rlen - via->length() &&
                    rlen < best) {
                    best = rlen;
                    rec.provenance = src;
                    rec.provenanceKnown = true;
                }
            }
        }
    }
    _faults.push_back(rec);
}

u64
Metrics::faultCount(CapFault cause) const
{
    unsigned ci = static_cast<unsigned>(cause);
    return ci < faultsByCause.size() ? faultsByCause[ci] : 0;
}

void
Metrics::captureCost(std::string label, const CostModel &cost)
{
    CostSnapshot snap;
    snap.label = std::move(label);
    snap.abi = cost.abi();
    for (const CostField &f : costFields)
        snap.*f.member = (cost.*f.read)();
    costs.push_back(std::move(snap));
}

void
Metrics::derive(DeriveSource source, const Capability &cap)
{
    ++deriveCounts[static_cast<unsigned>(source)];
    if (cap.tag())
        provenance[{cap.base(), cap.length()}] = source;
}

void
Metrics::attach(std::shared_ptr<const KernelCounters> counters)
{
    if (std::find(kernels.begin(), kernels.end(), counters) ==
        kernels.end())
        kernels.push_back(std::move(counters));
}

KernelCounters
Metrics::kernelCounters() const
{
    KernelCounters sum;
    for (const auto &k : kernels)
        sum += *k;
    return sum;
}

void
Metrics::reset()
{
    sys = {};
    insnMix = {};
    // Zeroed in place: MemAccess counter-block pointers stay valid.
    tlb = {};
    _faults.clear();
    faultsDropped = 0;
    faultsByCause = {};
    kernels.clear();
    _threadSteps.clear();
    chk = {};
    snp = {};
    costs.clear();
    deriveCounts = {};
    provenance.clear();
    currentSys = 0;
}

namespace
{

void
emitHistogram(JsonWriter &w, const Histogram &h)
{
    w.beginObject();
    w.key("count").value(h.count);
    w.key("sum").value(h.sum);
    w.key("min").value(h.count ? h.min : 0);
    w.key("max").value(h.max);
    w.key("mean").value(h.mean());
    w.key("buckets").beginArray();
    for (unsigned i = 0; i < Histogram::numBuckets; ++i) {
        if (!h.buckets[i])
            continue;
        w.beginObject();
        w.key("lo").value(Histogram::bucketLo(i));
        w.key("count").value(h.buckets[i]);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

/** Every field of counter block @p s under its list key, into the
 *  open JSON object. */
template <class S>
JsonWriter &
emitFields(JsonWriter &w, const S &s)
{
    forEachField(s, [&](const auto &f, u64 v) { w.key(f.key).value(v); });
    return w;
}

constexpr Abi allAbis[] = {Abi::Mips64, Abi::CheriAbi, Abi::Hybrid};

/** TlbCounter names, indexed by the counter. */
constexpr std::array<std::string_view, numTlbCounters> tlbNames = {
    "data_hits", "data_misses", "fetch_hits", "fetch_misses",
    "invalidations"};

/** No counter of an ABI's TLB block has moved. */
bool
idle(const std::array<u64, numTlbCounters> &blk)
{
    return std::all_of(blk.begin(), blk.end(), [](u64 v) { return !v; });
}

} // namespace

std::string
Metrics::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value(std::string_view("cheri.metrics.v9"));

    w.key("syscalls").beginArray();
    for (Abi abi : allAbis) {
        for (unsigned n = 0; n < numSysNums; ++n) {
            const SyscallStats &s = sys[abiIndex(abi)][n];
            if (!s.calls)
                continue;
            w.beginObject();
            w.key("num").value(n);
            w.key("name").value(sysNumName(n));
            w.key("abi").value(abiName(abi));
            w.key("ptr_args").value(
                static_cast<unsigned>(syscallTable[n].nPtrArgs));
            w.key("calls").value(s.calls);
            w.key("errors").value(s.errors);
            w.key("cycles");
            emitHistogram(w, s.cycles);
            w.endObject();
        }
    }
    w.endArray();

    w.key("faults").beginArray();
    for (const FaultRecord &f : _faults) {
        w.beginObject();
        w.key("cause").value(capFaultName(f.cause));
        w.key("pc").value(f.pc);
        w.key("addr").value(f.addr);
        w.key("abi").value(abiName(f.abi));
        if (f.sysnum) // only when the fault hit mid-syscall
            w.key("syscall").value(sysNumName(f.sysnum));
        if (f.provenanceKnown)
            w.key("provenance").value(deriveSourceName(f.provenance));
        w.endObject();
    }
    w.endArray();
    if (faultsDropped)
        w.key("faults_dropped").value(faultsDropped);

    w.key("insn_mix").beginArray();
    for (unsigned op = 0; op < maxOps; ++op) {
        u64 total = 0;
        for (Abi abi : allAbis)
            total += insnMix[abiIndex(abi)][op];
        if (!total)
            continue;
        w.beginObject();
        if (opNamer)
            w.key("op").value(opNamer(op));
        else
            w.key("op").value(static_cast<u64>(op));
        for (Abi abi : allAbis) {
            if (u64 c = insnMix[abiIndex(abi)][op])
                w.key(abiName(abi)).value(c);
        }
        w.endObject();
    }
    w.endArray();

    w.key("cost").beginArray();
    for (const CostSnapshot &c : costs) {
        w.beginObject();
        w.key("label").value(std::string_view(c.label));
        w.key("abi").value(abiName(c.abi));
        for (const CostField &f : costFields)
            w.key(f.key).value(c.*f.member);
        w.endObject();
    }
    w.endArray();

    // Per-ABI software-TLB counters (v2 schema addition).
    w.key("tlb").beginArray();
    for (Abi abi : allAbis) {
        const auto &blk = tlb[abiIndex(abi)];
        if (idle(blk))
            continue;
        w.beginObject();
        w.key("abi").value(abiName(abi));
        for (unsigned c = 0; c < numTlbCounters; ++c)
            w.key(tlbNames[c]).value(blk[c]);
        w.endObject();
    }
    w.endArray();

    const KernelCounters k = kernelCounters();

    // Memory-pressure counters (v3 schema addition).
    emitFields(w.key("memory").beginObject(), k.pressure).endObject();

    // Revocation-epoch counters (v5 schema addition).
    emitFields(w.key("revocation").beginObject(), k.revocation).endObject();

    // Scheduler counters (v6 schema addition).  decode_hit_rate is the
    // fraction of instruction fetches served by the per-context decode
    // micro-caches — the retention the unified engine buys.
    emitFields(w.key("sched").beginObject(), k.sched);
    {
        u64 hits = 0, misses = 0;
        for (Abi abi : allAbis) {
            hits += tlb[abiIndex(abi)][TlbFetchHit];
            misses += tlb[abiIndex(abi)][TlbFetchMiss];
        }
        double rate = (hits + misses)
                          ? static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0.0;
        w.key("decode_hit_rate").value(rate);
    }
    w.key("threads").beginArray();
    for (const auto &[key, steps] : _threadSteps) {
        w.beginObject();
        w.key("pid").value(key.first);
        w.key("tid").value(key.second);
        w.key("steps").value(steps);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    // Blocking FD I/O counters (v7 schema addition): how often the
    // pipe/pty/select paths parked, woke, or degraded to E_AGAIN.
    emitFields(w.key("fd").beginObject(), k.fd).endObject();

    // Checking-layer counters (v4 schema addition).
    emitFields(w.key("check").beginObject(), chk).endObject();

    // Snapshot/replay counters (v8 schema addition).
    emitFields(w.key("snapshot").beginObject(), snp).endObject();

    // Kernel-hardening counters (v9 schema addition): structured
    // panics, deadlock-watchdog verdicts, machine-check degradations.
    emitFields(w.key("hardening").beginObject(), k.hardening).endObject();

    w.key("derives").beginObject();
    for (unsigned s = 0; s < numDeriveSources; ++s) {
        if (deriveCounts[s]) {
            w.key(deriveSourceName(static_cast<DeriveSource>(s)))
                .value(deriveCounts[s]);
        }
    }
    w.endObject();

    w.endObject();
    return w.str();
}

std::string
Metrics::toCsv() const
{
    std::string out = "num,name,abi,ptr_args,calls,errors,"
                      "cycles_min,cycles_max,cycles_mean\n";
    for (Abi abi : allAbis) {
        for (unsigned n = 0; n < numSysNums; ++n) {
            const SyscallStats &s = sys[abiIndex(abi)][n];
            if (!s.calls)
                continue;
            char buf[256];
            std::snprintf(
                buf, sizeof(buf),
                "%u,%.*s,%.*s,%u,%llu,%llu,%llu,%llu,%.1f\n", n,
                static_cast<int>(sysNumName(n).size()),
                sysNumName(n).data(),
                static_cast<int>(abiName(abi).size()),
                abiName(abi).data(),
                static_cast<unsigned>(syscallTable[n].nPtrArgs),
                static_cast<unsigned long long>(s.calls),
                static_cast<unsigned long long>(s.errors),
                static_cast<unsigned long long>(s.cycles.count ? s.cycles.min
                                                              : 0),
                static_cast<unsigned long long>(s.cycles.max),
                s.cycles.mean());
            out += buf;
        }
    }
    // Second table: per-ABI software-TLB counters (v2 addition).
    std::string tlbRows;
    for (Abi abi : allAbis) {
        const auto &blk = tlb[abiIndex(abi)];
        if (idle(blk))
            continue;
        tlbRows += abiName(abi);
        for (u64 v : blk)
            tlbRows += "," + std::to_string(v);
        tlbRows += '\n';
    }
    if (!tlbRows.empty()) {
        out += "\nabi";
        for (std::string_view name : tlbNames)
            out.append(",tlb_").append(name);
        out += "\n" + tlbRows;
    }
    return out;
}

} // namespace cheri::obs
