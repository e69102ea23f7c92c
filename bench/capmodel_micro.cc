/**
 * @file
 * google-benchmark micro-benchmarks of the capability model itself:
 * the host-side cost of the operations every simulated instruction
 * pays (derivation, checking, tagged-memory access, cache model).
 * These are wall-clock numbers about the *reproduction library*, not
 * simulated results from the paper.
 */

#include <benchmark/benchmark.h>

#include "cap/capability.h"
#include "machine/cache.h"
#include "machine/cost_model.h"
#include "mem/access.h"
#include "mem/vm.h"

using namespace cheri;

namespace
{

void
BM_CapSetBounds(benchmark::State &state)
{
    Capability root = Capability::root().setAddress(0x10000);
    for (auto _ : state) {
        auto r = root.setBounds(static_cast<u64>(state.range(0)));
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_CapSetBounds)->Arg(64)->Arg(1 << 20);

void
BM_CapCheckAccess(benchmark::State &state)
{
    Capability c =
        Capability::root().setAddress(0x10000).setBounds(4096).value();
    u64 addr = 0x10800;
    for (auto _ : state) {
        auto chk = c.checkAccess(addr, 8, PERM_LOAD);
        benchmark::DoNotOptimize(chk);
    }
}
BENCHMARK(BM_CapCheckAccess);

void
BM_CapIncAddress(benchmark::State &state)
{
    Capability c =
        Capability::root().setAddress(0x10000).setBounds(4096).value();
    for (auto _ : state) {
        c = c.incAddress(8);
        if (c.address() > 0x10F00)
            c = c.setAddress(0x10000);
        benchmark::DoNotOptimize(c);
    }
}
BENCHMARK(BM_CapIncAddress);

void
BM_CompressRoundTrip(benchmark::State &state)
{
    u64 len = static_cast<u64>(state.range(0));
    for (auto _ : state) {
        u64 r = compress::representableLength(len);
        u64 m = compress::representableAlignmentMask(len);
        benchmark::DoNotOptimize(r + m);
    }
}
BENCHMARK(BM_CompressRoundTrip)->Arg(100)->Arg(1 << 22);

void
BM_TaggedMemoryWriteCap(benchmark::State &state)
{
    PhysMem phys;
    SwapDevice swap;
    AddressSpace as(phys, swap, 1);
    u64 va = as.map(0, 1 << 20, PROT_READ | PROT_WRITE,
                    MappingKind::Data);
    Capability c = as.capForRange(va, 64, PROT_READ | PROT_WRITE);
    u64 off = 0;
    for (auto _ : state) {
        as.writeCap(va + (off & 0xFFFF0), c);
        off += 16;
        benchmark::DoNotOptimize(off);
    }
}
BENCHMARK(BM_TaggedMemoryWriteCap);

void
BM_AddressSpaceReadBytes(benchmark::State &state)
{
    PhysMem phys;
    SwapDevice swap;
    AddressSpace as(phys, swap, 1);
    u64 va = as.map(0, 1 << 20, PROT_READ | PROT_WRITE,
                    MappingKind::Data);
    u64 buf[8];
    u64 off = 0;
    for (auto _ : state) {
        auto f = as.readBytes(va + (off & 0xFFFC0), buf, sizeof(buf));
        benchmark::DoNotOptimize(f);
        off += 64;
    }
}
BENCHMARK(BM_AddressSpaceReadBytes);

void
BM_CacheHierarchyAccess(benchmark::State &state)
{
    CacheHierarchy cache;
    u64 addr = 0;
    for (auto _ : state) {
        HitLevel lvl = cache.access(addr & 0x7FFFF, 8,
                                    Access::DataLoad);
        benchmark::DoNotOptimize(lvl);
        addr += 64;
    }
}
BENCHMARK(BM_CacheHierarchyAccess);

// Sequential 8-byte loads: 7 in 8 repeat the previous line and hit the
// last-way probe; the 8th scans its set.
void
BM_CacheHierarchySequential8(benchmark::State &state)
{
    CacheHierarchy cache;
    u64 addr = 0;
    for (auto _ : state) {
        HitLevel lvl = cache.access(addr & 0x3FFF, 8, Access::DataLoad);
        benchmark::DoNotOptimize(lvl);
        addr += 8;
    }
}
BENCHMARK(BM_CacheHierarchySequential8);

// CostModel::load, the charge behind every guest load: one fetched
// instruction plus the data access.  Arg 8 walks an L1-resident buffer
// 8 bytes at a time (probe hits, no line crossed by the fetch); arg 64
// strides a 512 KiB buffer a line at a time (every access scans, fills
// and evicts in L1 and L2).
void
BM_CostModelLoad(benchmark::State &state)
{
    CostModel cost(Abi::CheriAbi);
    const u64 stride = static_cast<u64>(state.range(0));
    const u64 mask = stride == 8 ? 0x3FFF : 0x7FFFF;
    u64 addr = 0;
    for (auto _ : state) {
        cost.load(0x100000 + (addr & mask), 8);
        addr += stride;
    }
    benchmark::DoNotOptimize(cost.cycles());
}
BENCHMARK(BM_CostModelLoad)->Arg(8)->Arg(64);

// Instruction fetch on a warm L1I (past its first lap of the code
// footprint): one ALU instruction at a time, and the 120-instruction
// trap entry/exit of CostModel::syscall.
void
BM_CostModelWarmAlu1(benchmark::State &state)
{
    CostModel cost(Abi::CheriAbi);
    cost.alu(16 * 1024);
    for (auto _ : state)
        cost.alu(1);
    benchmark::DoNotOptimize(cost.cycles());
}
BENCHMARK(BM_CostModelWarmAlu1);

void
BM_CostModelWarmSyscall(benchmark::State &state)
{
    CostModel cost(Abi::CheriAbi);
    cost.alu(16 * 1024);
    for (auto _ : state)
        cost.syscall(0);
    benchmark::DoNotOptimize(cost.cycles());
}
BENCHMARK(BM_CostModelWarmSyscall);

// A capability load of a tagged granule through MemAccess that hits
// the dTLB, with a disarmed fault injector installed as the kernel
// always has: 16 granules of one page, round robin.
void
BM_MemAccessReadCapHit(benchmark::State &state)
{
    PhysMem phys;
    FaultInjector inj;
    phys.setFaultInjector(&inj);
    SwapDevice swap;
    AddressSpace as(phys, swap, 1);
    u64 va = as.map(0, pageSize, PROT_READ | PROT_WRITE, MappingKind::Data);
    Capability c = as.capForRange(va, 64, PROT_READ | PROT_WRITE);
    MemAccess mem(as);
    for (u64 g = 0; g < 16; ++g)
        (void)mem.writeCap(va + g * capSize, c);
    u64 g = 0;
    for (auto _ : state) {
        Result<Capability> r = mem.readCap(va + (g++ & 15) * capSize);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_MemAccessReadCapHit);

// A new process's cost model, and CostModel::reset() of a used one.
void
BM_CostModelConstruct(benchmark::State &state)
{
    for (auto _ : state) {
        CostModel cost(Abi::CheriAbi);
        benchmark::DoNotOptimize(&cost);
    }
}
BENCHMARK(BM_CostModelConstruct);

void
BM_CostModelReset(benchmark::State &state)
{
    CostModel cost(Abi::CheriAbi);
    u64 addr = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i, addr += 4096)
            cost.load(addr & 0xFFFFFF, 8);
        cost.reset();
    }
    benchmark::DoNotOptimize(cost.cycles());
}
BENCHMARK(BM_CostModelReset);

void
BM_SwapOutIn(benchmark::State &state)
{
    PhysMem phys;
    SwapDevice swap;
    AddressSpace as(phys, swap, 1);
    u64 va = as.map(0, pageSize, PROT_READ | PROT_WRITE,
                    MappingKind::Data);
    Capability c = as.capForRange(va, 64, PROT_READ | PROT_WRITE);
    as.writeCap(va, c);
    u64 dummy = 0;
    for (auto _ : state) {
        as.swapOutPage(va);
        auto f = as.readBytes(va, &dummy, 8); // triggers swap-in
        benchmark::DoNotOptimize(f);
    }
}
BENCHMARK(BM_SwapOutIn);

} // namespace

BENCHMARK_MAIN();
