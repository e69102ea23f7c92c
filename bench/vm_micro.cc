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
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "mem/access.h"
#include "mem/phys_mem.h"
#include "mem/swap.h"
#include "mem/vm.h"

using namespace cheri;

namespace
{

using Clock = std::chrono::steady_clock;

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
mibPerSec(u64 bytes, Clock::duration d)
{
    double secs = std::chrono::duration<double>(d).count();
    return secs > 0 ? bytes / (1024.0 * 1024.0) / secs : 0;
}

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

PatternResult
runPattern(const std::string &name, AddressSpace &as, MemAccess &mem,
           u64 base, const std::vector<u64> &offsets)
{
    PatternResult r;
    r.name = name;
    u64 bytes = offsets.size() * 8;

    auto t0 = Clock::now();
    u64 walk_sum = sweep(offsets, base, [&](u64 va, void *buf, u64 len) {
        return as.readBytes(va, buf, len).has_value();
    });
    auto t1 = Clock::now();
    MemAccess::Stats before = mem.stats();
    u64 tlb_sum = sweep(offsets, base, [&](u64 va, void *buf, u64 len) {
        return mem.read(va, buf, len).has_value();
    });
    auto t2 = Clock::now();
    r.tlbHits = mem.stats().dataHits - before.dataHits;
    r.tlbMisses = mem.stats().dataMisses - before.dataMisses;

    if (walk_sum != tlb_sum) {
        std::fprintf(stderr, "%s: path divergence (%llx vs %llx)\n",
                     name.c_str(),
                     static_cast<unsigned long long>(walk_sum),
                     static_cast<unsigned long long>(tlb_sum));
        std::exit(2);
    }
    r.walkMiBs = mibPerSec(bytes, t1 - t0);
    r.tlbMiBs = mibPerSec(bytes, t2 - t1);
    return r;
}

struct Lcg
{
    u64 s;
    u64 next() { return s = s * 6364136223846793005ull + 1442695040888963407ull; }
};

/** copyinstr shape: bytes scanned per second for a 2-page string. */
PatternResult
runCopyinstr(AddressSpace &as, MemAccess &mem, u64 base)
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
    auto t0 = Clock::now();
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
    auto t1 = Clock::now();
    MemAccess::Stats before = mem.stats();
    std::string out;
    u64 chunked_len = 0;
    for (int i = 0; i < iters; ++i) {
        if (mem.readString(base, &out, str_len + 1, nullptr) !=
            MemAccess::StrRead::Ok)
            std::abort();
        chunked_len = out.size();
    }
    auto t2 = Clock::now();
    r.tlbHits = mem.stats().dataHits - before.dataHits;
    r.tlbMisses = mem.stats().dataMisses - before.dataMisses;

    if (legacy_len != chunked_len || chunked_len != str_len)
        std::exit(2);
    r.walkMiBs = mibPerSec(u64{iters} * (str_len + 1), t1 - t0);
    r.tlbMiBs = mibPerSec(u64{iters} * (str_len + 1), t2 - t1);
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
    auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
        std::unique_ptr<AddressSpace> child = as.forkCopy(200 + i);
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
    }
    auto t1 = Clock::now();
    return std::chrono::duration<double>(t1 - t0).count() * 1000.0 /
           iters;
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
    // The reclaim hook is the bench's stand-in for the kernel's LRU
    // pass: evict a few pages beyond the immediate need so every fault
    // does not pay for a reclaim.
    phys.setReclaimHook([&](u64 wanted, const void *) {
        ++r.reclaimCalls;
        u64 n = as.swapOutResident(wanted + 7);
        r.pagesEvicted += n;
        return n;
    });

    u64 base = as.map(0, r.pages * pageSize, PROT_READ | PROT_WRITE,
                      MappingKind::Data);
    if (base == 0)
        return r;
    auto sample = [&] {
        r.maxLiveFrames = std::max(r.maxLiveFrames, phys.liveFrames());
        r.maxUsedSlots = std::max(r.maxUsedSlots, swap.usedSlots());
    };
    auto t0 = Clock::now();
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
    auto t1 = Clock::now();
    r.ms = std::chrono::duration<double>(t1 - t0).count() * 1000.0;
    r.completed = true;
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
    results.push_back(runPattern("sequential", as, mem, base, seq));
    results.push_back(runPattern("random", as, mem, base, rnd));
    results.push_back(runPattern("strided", as, mem, base, strided));
    results.push_back(runCopyinstr(as, mem, base));
    double fork_ms = runForkChurn(phys, swap);
    PressureResult pr = runPressure(report.option("--frames", 64),
                                    report.option("--slots", 256));

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
    return report.finish();
}
