/**
 * @file
 * Guest-memory micro-benchmarks for the unified access path.
 *
 * Compares the reference walk-per-access path (AddressSpace::readBytes:
 * on every call, a lookup of the mapping that holds the address and an
 * index into that mapping's dense PTE array) against the software-TLB
 * fast path (MemAccess) over the access patterns that dominate guest
 * execution: sequential, random, and strided 8-byte reads over a
 * prefaulted region, page-chunked string copyin, and fork/COW churn.
 *
 * Every workload checksums through both paths and aborts on mismatch,
 * so the speedup numbers are only reported for equivalent semantics.
 * The MiB/s and speedup figures are host wall-clock values and are
 * reported, not gated.  --check gates on what the TLB must do instead:
 * the sequential sweep takes exactly one dTLB miss per page it touches
 * and hits on every other read (a TLB that stops caching fails it on
 * any host, under any load), and the constrained-memory phase
 * completes within its frame and slot budgets.
 *
 * The guest-access layer times one GuestContext::load<u64> and
 * store<u64> on the dTLB-hit path under each ABI: pointer arithmetic,
 * the capability (or DDC) check, the cost model, the dTLB hit, the
 * disarmed fault-injector probe and the frame copy.  Its ns/access is
 * reported, not gated; --check gates on every access reaching the
 * dTLB (hits + misses = accesses issued), every load probing the
 * injector once (DataBitFlip events = loads), and the loads returning
 * what was stored.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "guest/context.h"
#include "machine/cost_model.h"
#include "mem/access.h"
#include "mem/mem_events.h"
#include "mem/phys_mem.h"
#include "mem/swap.h"
#include "mem/vm.h"

using namespace cheri;

namespace
{

constexpr u64 kRegionBytes = 4u << 20; // 4 MiB, prefaulted
constexpr u64 kWordsPerPass = kRegionBytes / 8;

struct PatternResult
{
    std::string name;
    double walkMiBs = 0;
    double tlbMiBs = 0;
    /** dTLB hits and misses the TLB path took. */
    u64 tlbHits = 0;
    u64 tlbMisses = 0;
};

double
mibPerSec(u64 bytes, double secs)
{
    return secs > 0 ? bytes / (1024.0 * 1024.0) / secs : 0;
}

/** The dTLB hits and misses a CostModel has counted so far; the
 *  difference of two is what the accesses between them took. */
struct Dtlb
{
    u64 hits;
    u64 misses;

    explicit Dtlb(const CostModel &cost)
        : hits(cost.dtlbAccesses() - cost.dtlbMisses()),
          misses(cost.dtlbMisses())
    {
    }
};

/** One 8-byte read per offset through either path; returns a checksum
 *  the caller compares across paths (and which defeats the optimizer). */
template <typename ReadFn>
u64
sweep(const std::vector<u64> &offsets, u64 base, ReadFn &&rd)
{
    u64 sum = 0;
    for (u64 off : offsets) {
        u64 v = 0;
        if (rd(base + off, &v, 8))
            std::abort(); // prefaulted region: a fault is a bench bug
        sum += v;
    }
    return sum;
}

/** One timed sweep each through the walk and the TLB path of @p mem,
 *  whose dTLB events @p cost counts.  Timed through bench::timeNs, so
 *  MemAccess::read is inlined into the sweep as its callers run it. */
PatternResult
runPattern(const std::string &name, AddressSpace &as, MemAccess &mem,
           const CostModel &cost, u64 base, const std::vector<u64> &offsets)
{
    PatternResult r;
    r.name = name;
    u64 bytes = offsets.size() * 8;

    auto walk = [&](u64 va, void *buf, u64 len) {
        return as.readBytes(va, buf, len).has_value();
    };
    auto tlb = [&](u64 va, void *buf, u64 len) {
        return mem.read(va, buf, len).has_value();
    };
    u64 walk_sum = 0, tlb_sum = 0;
    double walkSec =
        bench::timeNs(1, 1, [&] { walk_sum = sweep(offsets, base, walk); })
            .median / 1e9;
    const Dtlb before(cost);
    double tlbSec =
        bench::timeNs(1, 1, [&] { tlb_sum = sweep(offsets, base, tlb); })
            .median / 1e9;
    const Dtlb after(cost);
    r.tlbHits = after.hits - before.hits;
    r.tlbMisses = after.misses - before.misses;

    if (walk_sum != tlb_sum) {
        std::fprintf(stderr, "%s: path divergence (%llx vs %llx)\n",
                     name.c_str(),
                     static_cast<unsigned long long>(walk_sum),
                     static_cast<unsigned long long>(tlb_sum));
        std::exit(2);
    }
    r.walkMiBs = mibPerSec(bytes, walkSec);
    r.tlbMiBs = mibPerSec(bytes, tlbSec);
    return r;
}

struct Lcg
{
    u64 s;
    u64 next() { return s = s * 6364136223846793005ull + 1442695040888963407ull; }
};

/** copyinstr shape: bytes scanned per second for a 2-page string. */
PatternResult
runCopyinstr(AddressSpace &as, MemAccess &mem, const CostModel &cost,
             u64 base)
{
    PatternResult r;
    r.name = "copyinstr";
    const u64 str_len = 2 * pageSize - 64;
    std::string s(str_len, 'a');
    if (mem.write(base, s.c_str(), s.size() + 1))
        std::abort();

    const int iters = 400;
    // Legacy shape: one readBytes per byte until the NUL (what the
    // kernel did before the page-chunked reader).
    bench::Instant t0 = bench::now();
    u64 legacy_len = 0;
    for (int i = 0; i < iters; ++i) {
        legacy_len = 0;
        for (;;) {
            char c = 0;
            if (as.readBytes(base + legacy_len, &c, 1).has_value())
                std::abort();
            if (c == '\0')
                break;
            ++legacy_len;
        }
    }
    double legacySec = bench::secondsSince(t0);
    const Dtlb before(cost);
    t0 = bench::now();
    std::string out;
    u64 chunked_len = 0;
    for (int i = 0; i < iters; ++i) {
        if (mem.readString(base, &out, str_len + 1, nullptr) !=
            MemAccess::StrRead::Ok)
            std::abort();
        chunked_len = out.size();
    }
    double chunkedSec = bench::secondsSince(t0);
    const Dtlb after(cost);
    r.tlbHits = after.hits - before.hits;
    r.tlbMisses = after.misses - before.misses;

    if (legacy_len != chunked_len || chunked_len != str_len)
        std::exit(2);
    r.walkMiBs = mibPerSec(u64{iters} * (str_len + 1), legacySec);
    r.tlbMiBs = mibPerSec(u64{iters} * (str_len + 1), chunkedSec);
    return r;
}

/** fork/COW churn: forkCopy, dirty half the parent's pages through the
 *  TLB path, verify the child still sees the original bytes. */
double
runForkChurn(PhysMem &phys, SwapDevice &swap)
{
    AddressSpace as(phys, swap, 100);
    MemAccess mem(as);
    const u64 pages = 64;
    u64 base = as.map(0, pages * pageSize, PROT_READ | PROT_WRITE,
                      MappingKind::Data);
    for (u64 p = 0; p < pages; ++p) {
        u64 v = p;
        if (mem.write(base + p * pageSize, &v, 8))
            std::abort();
    }

    const int iters = 50;
    int i = 0;
    bench::Trials t = bench::timeNs(1, iters, [&] {
        std::unique_ptr<AddressSpace> child = as.forkCopy(200 + i++);
        MemAccess child_mem(*child);
        for (u64 p = 0; p < pages; p += 2) {
            u64 v = (u64{0xF00D} << 16) | p;
            if (mem.write(base + p * pageSize, &v, 8))
                std::abort();
        }
        for (u64 p = 1; p < pages; p += 2) {
            u64 got = 0;
            if (child_mem.read(base + p * pageSize, &got, 8))
                std::abort();
            if (got != p)
                std::exit(2); // COW leak: child saw a parent store
        }
        // Restore the parent's pattern for the next round.
        for (u64 p = 0; p < pages; p += 2) {
            u64 v = p;
            if (mem.write(base + p * pageSize, &v, 8))
                std::abort();
        }
    });
    return t.median / 1e6;
}

/** Constrained-memory phase: drive a working set several times larger
 *  than the frame budget through the TLB path, with LRU reclaim as the
 *  only thing standing between the workload and allocation failure. */
struct PressureResult
{
    u64 frameBudget = 0;
    u64 slotBudget = 0;
    u64 pages = 0;
    u64 maxLiveFrames = 0;
    u64 maxUsedSlots = 0;
    u64 reclaimCalls = 0;
    u64 pagesEvicted = 0;
    double ms = 0;
    bool completed = false;
};

/** The bench's stand-in for the kernel's LRU pass: evict a few pages
 *  beyond the immediate need so every fault does not pay for a
 *  reclaim.  No injector is armed, so no other event arrives. */
struct Evictor final : MemEvents
{
    AddressSpace &as;
    PressureResult &r;

    Evictor(AddressSpace &as, PressureResult &r) : as(as), r(r) {}

    u64
    reclaim(u64 wanted, const void *) override
    {
        ++r.reclaimCalls;
        u64 n = as.swapOutResident(wanted + 7);
        r.pagesEvicted += n;
        return n;
    }
    void machineCheck(FaultPoint, u64) override {}
    void faultFired(FaultPoint) override {}
};

PressureResult
runPressure(u64 frame_budget, u64 slot_budget)
{
    PressureResult r;
    r.frameBudget = frame_budget;
    r.slotBudget = slot_budget;
    r.pages = 4 * frame_budget;

    PhysMem phys;
    SwapDevice swap;
    phys.setCapacity(frame_budget);
    swap.setSlotBudget(slot_budget);
    AddressSpace as(phys, swap, 1);
    MemAccess mem(as);
    Evictor evictor(as, r);
    phys.setMemEvents(&evictor);

    u64 base = as.map(0, r.pages * pageSize, PROT_READ | PROT_WRITE,
                      MappingKind::Data);
    if (base == 0)
        return r;
    auto sample = [&] {
        r.maxLiveFrames = std::max(r.maxLiveFrames, phys.liveFrames());
        r.maxUsedSlots = std::max(r.maxUsedSlots, swap.usedSlots());
    };
    bench::Instant t0 = bench::now();
    for (u64 p = 0; p < r.pages; ++p) {
        u64 v = p * 2654435761u;
        if (mem.write(base + p * pageSize, &v, 8))
            return r; // exhaustion must not occur with reclaim armed
        sample();
    }
    // Read everything back — half the set is on swap by now, so this
    // exercises swap-in under the same budgets.
    for (u64 p = 0; p < r.pages; ++p) {
        u64 got = 0;
        if (mem.read(base + p * pageSize, &got, 8))
            return r;
        if (got != p * 2654435761u)
            return r; // reclaim corrupted the working set
        sample();
    }
    r.ms = bench::secondsSince(t0) * 1000.0;
    r.completed = true;
    return r;
}

/** GuestContext load/store on the dTLB-hit path, under one ABI. */
struct GuestAccessResult
{
    std::string abi;
    double loadNs = 0;
    double storeNs = 0;
    /** Loads timed; as many stores were timed too. */
    u64 loads = 0;
    u64 tlbHits = 0;
    u64 tlbMisses = 0;
    u64 probes = 0;
    bool loadsMatch = false;
};

GuestAccessResult
runGuestAccess(Abi abi, const std::string &name)
{
    GuestAccessResult r;
    r.abi = name;
    Kernel kern;
    SelfObject prog;
    prog.name = "vm_micro";
    Process *proc = kern.spawn(abi, "vm_micro");
    if (kern.execve(*proc, prog, {"vm_micro"}, {}) != E_OK)
        std::exit(2);
    GuestContext ctx(kern, *proc);
    // 16 pages: within the dTLB's reach, so after one store per page
    // every timed access hits.
    constexpr u64 kPages = 16;
    constexpr u64 kWords = kPages * pageSize / 8;
    constexpr u64 kIters = u64{1} << 18;
    constexpr int kReps = 5;
    GuestPtr buf = ctx.mmap(kPages * pageSize);
    for (u64 p = 0; p < kPages; ++p)
        ctx.store<u64>(buf, static_cast<s64>(p * pageSize), p + 1);

    const Dtlb before(proc->cost());
    const FaultInjector &inj = kern.faultInjector();
    const u64 probes = inj.events(FaultPoint::DataBitFlip);
    // Each rep is a whole number of laps over the buffer.  The stores
    // rewrite the values already there, so every rep loads the same
    // checksum.
    u64 sum = 0, loaded = 0, stored = 0;
    auto load = [&] {
        sum += ctx.load<u64>(buf, static_cast<s64>((loaded++ % kWords) * 8));
    };
    auto store = [&] {
        u64 w = stored++ % kWords;
        ctx.store<u64>(buf, static_cast<s64>(w * 8),
                       w % 512 == 0 ? w / 512 + 1 : 0);
    };
    std::vector<double> load_ns, store_ns;
    for (int rep = 0; rep < kReps; ++rep) {
        load_ns.push_back(bench::timeNs(1, kIters, load).median);
        store_ns.push_back(bench::timeNs(1, kIters, store).median);
    }
    r.loadNs = bench::median(load_ns);
    r.storeNs = bench::median(store_ns);
    r.loads = kReps * kIters;
    const Dtlb after(proc->cost());
    r.tlbHits = after.hits - before.hits;
    r.tlbMisses = after.misses - before.misses;
    r.probes = inj.events(FaultPoint::DataBitFlip) - probes;
    // Each lap over the buffer sums page p's first word, p + 1.
    r.loadsMatch =
        sum == kReps * (kIters / kWords) * (kPages * (kPages + 1) / 2);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report(argc, argv, {"--frames", "--slots"});
    PhysMem phys;
    SwapDevice swap;
    AddressSpace as(phys, swap, 1);
    MemAccess mem(as);
    CostModel cost(Abi::CheriAbi);
    mem.setCostModel(&cost);
    u64 base = as.map(0, kRegionBytes, PROT_READ | PROT_WRITE,
                      MappingKind::Data);
    // Prefault with a nonzero pattern so the sweeps measure steady
    // state, not demand-zero service.
    for (u64 off = 0; off < kRegionBytes; off += 8) {
        u64 v = off * 2654435761u;
        if (as.writeBytes(base + off, &v, 8).has_value())
            std::abort();
    }

    std::vector<u64> seq(kWordsPerPass);
    for (u64 i = 0; i < kWordsPerPass; ++i)
        seq[i] = i * 8;

    std::vector<u64> rnd(kWordsPerPass);
    Lcg rng{42};
    for (u64 i = 0; i < kWordsPerPass; ++i)
        rnd[i] = (rng.next() % kWordsPerPass) * 8;

    // Stride chosen co-prime with the TLB geometry so the sweep still
    // touches every set instead of ping-ponging one entry.
    std::vector<u64> strided(kWordsPerPass);
    for (u64 i = 0; i < kWordsPerPass; ++i)
        strided[i] = (i * 264) % kRegionBytes;

    std::vector<PatternResult> results;
    results.push_back(runPattern("sequential", as, mem, cost, base, seq));
    results.push_back(runPattern("random", as, mem, cost, base, rnd));
    results.push_back(runPattern("strided", as, mem, cost, base, strided));
    results.push_back(runCopyinstr(as, mem, cost, base));
    double fork_ms = runForkChurn(phys, swap);
    PressureResult pr = runPressure(report.option("--frames", 64),
                                    report.option("--slots", 256));
    const GuestAccessResult guest[] = {
        runGuestAccess(Abi::Mips64, "mips64"),
        runGuestAccess(Abi::CheriAbi, "CheriABI"),
    };

    report.section("Guest-memory access paths: walk vs software TLB");
    report.note("8-byte reads over a prefaulted 4 MiB region; the walk "
                "column is the\nAddressSpace::readBytes path, the TLB "
                "column is MemAccess.\n");
    for (const PatternResult &r : results) {
        bench::Style mibs{.unit = "MiB/s", .places = 1, .host = true};
        report.add(r.name, "walk", r.walkMiBs, mibs);
        report.add(r.name, "TLB", r.tlbMiBs, mibs);
        report.add(r.name, "speedup",
                   r.walkMiBs > 0 ? r.tlbMiBs / r.walkMiBs : 0,
                   {.unit = "x", .places = 2, .host = true});
        report.add(r.name, "dTLB hits", r.tlbHits);
        report.add(r.name, "dTLB misses", r.tlbMisses);
    }
    report.note("");
    report.add("fork/COW churn (64 pages, half dirtied)", "time", fork_ms,
               {.unit = "ms/iter", .places = 3, .host = true});

    report.note("\nconstrained memory: a working set 4x the frame budget "
                "through reclaim");
    report.add("pressure", "pages", pr.pages);
    report.add("pressure", "frame budget", pr.frameBudget);
    report.add("pressure", "slot budget", pr.slotBudget);
    report.add("pressure", "peak frames", pr.maxLiveFrames);
    report.add("pressure", "peak slots", pr.maxUsedSlots);
    report.add("pressure", "reclaims", pr.reclaimCalls);
    report.add("pressure", "evictions", pr.pagesEvicted);
    report.add("pressure", "completed", pr.completed);
    report.add("pressure", "time", pr.ms,
               {.unit = "ms", .places = 3, .host = true});

    report.note("\nGuestContext load<u64>/store<u64> on the dTLB-hit path "
                "(median of 5 runs)");
    for (const GuestAccessResult &g : guest) {
        bench::Style ns{.unit = "ns", .places = 1, .host = true};
        report.add("guest access " + g.abi, "load", g.loadNs, ns);
        report.add("guest access " + g.abi, "store", g.storeNs, ns);
        report.add("guest access " + g.abi, "accesses", 2 * g.loads);
        report.add("guest access " + g.abi, "dTLB hits", g.tlbHits);
        report.add("guest access " + g.abi, "dTLB misses", g.tlbMisses);
        report.add("guest access " + g.abi, "data-flip probes", g.probes);
    }

    // The sequential sweep touches every page of the region once, in
    // order: one miss per page, every other read a hit.
    const PatternResult &sequential = results[0];
    const u64 pages = kRegionBytes / pageSize;
    report.expect(sequential.tlbMisses == pages,
                  "sequential sweep takes one dTLB miss per page");
    report.expect(sequential.tlbHits == kWordsPerPass - pages,
                  "every other sequential read hits the dTLB");
    report.expect(pr.completed,
                  "constrained workload completes under reclaim");
    report.expect(pr.maxLiveFrames <= pr.frameBudget &&
                      pr.maxUsedSlots <= pr.slotBudget,
                  "peak frames and slots stay within their budgets");
    for (const GuestAccessResult &g : guest) {
        report.expect(g.tlbHits + g.tlbMisses == 2 * g.loads,
                      g.abi + ": every guest access reaches the dTLB");
        report.expect(g.probes == g.loads,
                      g.abi + ": every guest load probes the injector");
        report.expect(g.loadsMatch,
                      g.abi + ": guest loads return what was stored");
    }
    return report.finish();
}
