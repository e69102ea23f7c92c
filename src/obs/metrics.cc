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
    snap.instructions = cost.instructions();
    snap.cycles = cost.cycles();
    snap.l1dMisses = cost.l1dMisses();
    snap.l2Misses = cost.l2Misses();
    snap.codeBytes = cost.codeBytes();
    snap.itlbMisses = cost.itlbMisses();
    snap.dtlbMisses = cost.dtlbMisses();
    costs.push_back(std::move(snap));
}

void
Metrics::derive(DeriveSource source, const Capability &cap)
{
    ++deriveCounts[static_cast<unsigned>(source)];
    if (cap.tag())
        provenance[{cap.base(), cap.length()}] = source;
    if (next)
        next->derive(source, cap);
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

constexpr Abi allAbis[] = {Abi::Mips64, Abi::CheriAbi, Abi::Hybrid};

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
        w.key("instructions").value(c.instructions);
        w.key("cycles").value(c.cycles);
        w.key("l1d_misses").value(c.l1dMisses);
        w.key("l2_misses").value(c.l2Misses);
        w.key("code_bytes").value(c.codeBytes);
        w.key("itlb_misses").value(c.itlbMisses);
        w.key("dtlb_misses").value(c.dtlbMisses);
        w.endObject();
    }
    w.endArray();

    // Per-ABI software-TLB counters (v2 schema addition).
    w.key("tlb").beginArray();
    for (Abi abi : allAbis) {
        const auto &blk = tlb[abiIndex(abi)];
        u64 total = 0;
        for (u64 v : blk)
            total += v;
        if (!total)
            continue;
        w.beginObject();
        w.key("abi").value(abiName(abi));
        w.key("data_hits").value(blk[TlbDataHit]);
        w.key("data_misses").value(blk[TlbDataMiss]);
        w.key("fetch_hits").value(blk[TlbFetchHit]);
        w.key("fetch_misses").value(blk[TlbFetchMiss]);
        w.key("invalidations").value(blk[TlbInvalidation]);
        w.endObject();
    }
    w.endArray();

    const KernelCounters k = kernelCounters();
    const MemPressureStats &mem = k.pressure;
    const RevocationStats &rev = k.revocation;
    const SchedStats &schd = k.sched;
    const FdIoStats &fdio = k.fd;
    const HardeningStats &hard = k.hardening;

    // Memory-pressure counters (v3 schema addition).
    w.key("memory").beginObject();
    w.key("reclaim_passes").value(mem.reclaimPasses);
    w.key("pages_reclaimed").value(mem.pagesReclaimed);
    w.key("oom_kills").value(mem.oomKills);
    w.key("enomem").value(mem.enomemErrors);
    w.endObject();

    // Revocation-epoch counters (v5 schema addition).
    w.key("revocation").beginObject();
    w.key("epochs_opened").value(rev.epochsOpened);
    w.key("epochs_closed").value(rev.epochsClosed);
    w.key("epochs_aborted").value(rev.epochsAborted);
    w.key("pages_scanned").value(rev.pagesScanned);
    w.key("pages_skipped_clean").value(rev.pagesSkippedClean);
    w.key("granules_visited").value(rev.granulesVisited);
    w.key("tags_revoked").value(rev.tagsRevoked);
    w.key("incremental_slices").value(rev.incrementalSlices);
    w.key("sync_sweeps").value(rev.syncSweeps);
    w.key("cycles_in_epochs").value(rev.cyclesInEpochs);
    w.endObject();

    // Scheduler counters (v6 schema addition).  decode_hit_rate is the
    // fraction of instruction fetches served by the per-context decode
    // micro-caches — the retention the unified engine buys.
    w.key("sched").beginObject();
    w.key("context_switches").value(schd.contextSwitches);
    w.key("preemptions").value(schd.preemptions);
    w.key("slices").value(schd.slices);
    w.key("blocks_wait4").value(schd.blocksWait4);
    w.key("blocks_event").value(schd.blocksEvent);
    w.key("blocks_sleep").value(schd.blocksSleep);
    w.key("blocks_fd").value(schd.blocksFd);
    w.key("wakes").value(schd.wakes);
    w.key("max_run_queue_depth").value(schd.maxRunQueueDepth);
    w.key("idle_advances").value(schd.idleAdvances);
    w.key("steps_executed").value(schd.stepsExecuted);
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
    w.key("fd").beginObject();
    w.key("blocks").value(fdio.blocks);
    w.key("wakes").value(fdio.wakes);
    w.key("eagain_errors").value(fdio.eagainErrors);
    w.key("epipe_errors").value(fdio.epipeErrors);
    w.key("partial_writes").value(fdio.partialWrites);
    w.key("select_timeouts").value(fdio.selectTimeouts);
    w.endObject();

    // Checking-layer counters (v4 schema addition).
    w.key("check").beginObject();
    w.key("oracle_runs").value(chk.oracleRuns);
    w.key("oracle_violations").value(chk.oracleViolations);
    w.key("fuzz_cases").value(chk.fuzzCases);
    w.key("fuzz_divergences").value(chk.fuzzDivergences);
    w.endObject();

    // Snapshot/replay counters (v8 schema addition).
    w.key("snapshot").beginObject();
    w.key("snapshots_taken").value(snp.snapshotsTaken);
    w.key("snapshot_bytes").value(snp.snapshotBytes);
    w.key("restores").value(snp.restores);
    w.key("restore_failures").value(snp.restoreFailures);
    w.key("records").value(snp.records);
    w.key("replays").value(snp.replays);
    w.key("replay_divergences").value(snp.replayDivergences);
    w.key("log_entries").value(snp.logEntries);
    w.endObject();

    // Kernel-hardening counters (v9 schema addition): structured
    // panics, deadlock-watchdog verdicts, machine-check degradations.
    w.key("hardening").beginObject();
    w.key("panics").value(hard.panics);
    w.key("deadlocks_detected").value(hard.deadlocksDetected);
    w.key("deadlocks_killed").value(hard.deadlocksKilled);
    w.key("machine_checks").value(hard.machineChecks);
    w.endObject();

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
    bool any_tlb = false;
    for (Abi abi : allAbis) {
        for (u64 v : tlb[abiIndex(abi)])
            any_tlb = any_tlb || v != 0;
    }
    if (any_tlb) {
        out += "\nabi,tlb_data_hits,tlb_data_misses,tlb_fetch_hits,"
               "tlb_fetch_misses,tlb_invalidations\n";
        for (Abi abi : allAbis) {
            const auto &blk = tlb[abiIndex(abi)];
            u64 total = 0;
            for (u64 v : blk)
                total += v;
            if (!total)
                continue;
            char buf[192];
            std::snprintf(
                buf, sizeof(buf), "%.*s,%llu,%llu,%llu,%llu,%llu\n",
                static_cast<int>(abiName(abi).size()),
                abiName(abi).data(),
                static_cast<unsigned long long>(blk[TlbDataHit]),
                static_cast<unsigned long long>(blk[TlbDataMiss]),
                static_cast<unsigned long long>(blk[TlbFetchHit]),
                static_cast<unsigned long long>(blk[TlbFetchMiss]),
                static_cast<unsigned long long>(blk[TlbInvalidation]));
            out += buf;
        }
    }
    return out;
}

} // namespace cheri::obs
