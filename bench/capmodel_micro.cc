/**
 * @file
 * Host-time micro-benchmarks of the model library itself: what the
 * operations every simulated instruction pays (capability derivation
 * and checks, tagged memory, the cache and cost models, swap) cost on
 * the host.  These are wall-clock numbers about the *reproduction
 * library*, not simulated results from the paper: ns per operation,
 * the median of kTrials trials.
 *
 * --check gates, by exact counts, on each case timing the state it
 * names: the warm cost-model cases stay warm, the capability load hits
 * the dTLB and probes the injector once per load, the 16 KiB window
 * misses the L1D once per line, and swap round trips keep the tag.
 */

#include <string>

#include "bench_util.h"
#include "cap/capability.h"
#include "machine/cache.h"
#include "machine/cost_model.h"
#include "mem/access.h"
#include "mem/vm.h"

using namespace cheri;

namespace
{

constexpr int kTrials = 11;

/** Time @p body, @p reps runs per trial, as case @p name. */
template <typename Body>
void
timeCase(bench::Report &report, const std::string &name, u64 reps,
         Body &&body)
{
    bench::Trials t = bench::timeNs(kTrials, reps, body);
    report.add(name, "time", t.median,
               {.unit = "ns", .places = 2, .host = true, .iqr = t.iqr,
                .iqrPlaces = 2});
}

/** A data mapping (1 MiB by default) in a fresh address space. */
struct Space
{
    PhysMem phys;
    SwapDevice swap;
    AddressSpace as{phys, swap, 1};
    u64 va = 0;
    Capability cap;

    explicit Space(u64 bytes = 1 << 20, FaultInjector *inj = nullptr)
    {
        phys.setFaultInjector(inj);
        va = as.map(0, bytes, PROT_READ | PROT_WRITE, MappingKind::Data);
        cap = as.capForRange(va, 64, PROT_READ | PROT_WRITE);
    }
};

// Instruction fetch on a warm L1I (past its first lap of the code
// footprint): one ALU instruction at a time, and the 120-instruction
// trap entry/exit of CostModel::syscall.
template <typename Op>
void
costModelWarm(bench::Report &report, const std::string &name, u64 reps,
              Op op)
{
    CostModel cost(Abi::CheriAbi);
    cost.alu(16 * 1024);
    bool warm = cost.instructionCacheWarm();
    timeCase(report, name, reps, [&] { op(cost); });
    report.expect(warm && cost.instructionCacheWarm(),
                  name + ": the L1I is warm before and after timing");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report(argc, argv);
    report.section("Model library: host ns per operation (median of " +
                   std::to_string(kTrials) + " trials)");

    Capability root = Capability::root().setAddress(0x10000);
    for (u64 len : {u64{64}, u64{1} << 20})
        timeCase(report, "CapSetBounds/" + std::to_string(len), 1 << 17,
                 [&] { bench::keep(root.setBounds(len)); });
    Capability c = root.setBounds(4096).value();
    timeCase(report, "CapCheckAccess", 1 << 20,
             [&] { bench::keep(c.checkAccess(0x10800, 8, PERM_LOAD)); });
    timeCase(report, "CapIncAddress", 1 << 20, [&] {
        c = c.incAddress(8);
        if (c.address() > 0x10F00)
            c = c.setAddress(0x10000);
        bench::keep(c);
    });
    for (u64 len : {u64{100}, u64{1} << 22})
        timeCase(report, "CompressRoundTrip/" + std::to_string(len),
                 1 << 19, [&] {
                     bench::keep(compress::representableLength(len) +
                                 compress::representableAlignmentMask(len));
                 });

    {
        Space s;
        u64 off = 0;
        timeCase(report, "TaggedMemoryWriteCap", 1 << 17, [&] {
            s.as.writeCap(s.va + (off & 0xFFFF0), s.cap);
            off += 16;
        });
    }
    {
        Space s;
        u64 buf[8], off = 0;
        timeCase(report, "AddressSpaceReadBytes", 1 << 17, [&] {
            bench::keep(s.as.readBytes(s.va + (off & 0xFFFC0), buf, 64));
            off += 64;
        });
    }

    {
        CacheHierarchy cache;
        u64 addr = 0;
        timeCase(report, "CacheHierarchyAccess", 1 << 16, [&] {
            bench::keep(cache.access(addr & 0x7FFFF, 8, Access::DataLoad));
            addr += 64;
        });
    }
    {
        // Sequential 8-byte loads over a 16 KiB window: 7 in 8 repeat
        // the previous line and hit the last-way probe; the 8th scans
        // its set.  The window fits the L1D: each line misses once.
        CacheHierarchy cache;
        u64 addr = 0;
        timeCase(report, "CacheHierarchySequential8", 1 << 18, [&] {
            bench::keep(cache.access(addr & 0x3FFF, 8, Access::DataLoad));
            addr += 8;
        });
        report.expect(cache.l1dMisses() == 0x4000 / cacheLineBytes,
                      "CacheHierarchySequential8: one L1D miss per line");
    }

    // CostModel::load, the charge behind every guest load: one fetched
    // instruction plus the data access.  Stride 8 walks an L1-resident
    // buffer (probe hits, no line crossed by the fetch); stride 64
    // strides a 512 KiB buffer a line at a time (every access scans,
    // fills and evicts in L1 and L2).
    for (u64 stride : {8, 64}) {
        CostModel cost(Abi::CheriAbi);
        const u64 mask = stride == 8 ? 0x3FFF : 0x7FFFF;
        u64 addr = 0;
        timeCase(report, "CostModelLoad/" + std::to_string(stride),
                 stride == 8 ? 1 << 19 : 1 << 17, [&] {
                     cost.load(0x100000 + (addr & mask), 8);
                     addr += stride;
                 });
    }
    costModelWarm(report, "CostModelWarmAlu1", 1 << 20,
                  [](CostModel &cost) { cost.alu(1); });
    costModelWarm(report, "CostModelWarmSyscall", 1 << 19,
                  [](CostModel &cost) { cost.syscall(0); });

    {
        // A capability load of a tagged granule through MemAccess that
        // hits the dTLB, with a disarmed fault injector and a cost
        // model (which counts the dTLB events) installed as the kernel
        // always has: 16 granules of one page, round robin.
        constexpr u64 kReps = 1 << 19;
        FaultInjector inj;
        Space s(pageSize, &inj);
        MemAccess mem(s.as);
        CostModel cost(Abi::CheriAbi);
        mem.setCostModel(&cost);
        for (u64 g = 0; g < 16; ++g)
            (void)mem.writeCap(s.va + g * capSize, s.cap);
        const u64 misses = cost.dtlbMisses();
        const u64 probes = inj.events(FaultPoint::TagBitFlip);
        u64 g = 0;
        Capability c;
        timeCase(report, "MemAccessReadCapHit", kReps, [&] {
            bench::keep(mem.readCap(s.va + (g++ & 15) * capSize, c));
            bench::keep(c);
        });
        report.expect(cost.dtlbMisses() == misses,
                      "MemAccessReadCapHit: no dTLB miss while timed");
        report.expect(inj.events(FaultPoint::TagBitFlip) - probes ==
                          kTrials * kReps,
                      "MemAccessReadCapHit: one TagBitFlip probe per load");
    }

    // A new process's cost model, and CostModel::reset() of a used one.
    timeCase(report, "CostModelConstruct", 1 << 12, [] {
        CostModel cost(Abi::CheriAbi);
        bench::keep(&cost);
    });
    {
        CostModel cost(Abi::CheriAbi);
        u64 addr = 0;
        timeCase(report, "CostModelReset", 1 << 10, [&] {
            for (int i = 0; i < 64; ++i, addr += 4096)
                cost.load(addr & 0xFFFFFF, 8);
            cost.reset();
        });
    }

    {
        Space s(pageSize);
        s.as.writeCap(s.va, s.cap);
        u64 word = 0, failed = 0;
        timeCase(report, "SwapOutIn", 1 << 11, [&] {
            failed += !s.as.swapOutPage(s.va);
            failed += s.as.readBytes(s.va, &word, 8).has_value(); // swap-in
        });
        Result<Capability> back = s.as.readCap(s.va);
        report.expect(failed == 0 && back.ok() && back.value().tag(),
                      "SwapOutIn: no fault, and the tag survives");
    }
    return report.finish();
}
