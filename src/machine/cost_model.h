/**
 * @file
 * Per-ABI execution cost model.
 *
 * The paper benchmarks compiled MIPS vs. pure-capability (CheriABI) code
 * on an in-order, single-issue FPGA core.  Our guest workloads execute as
 * C++ against the capability model, so the instruction streams the CHERI
 * compiler would emit are charged here instead.  Every charge is a small,
 * documented count, and the interesting per-ABI differences are exactly
 * the ones the paper discusses (section 5.2):
 *
 *  - pointers are 16 bytes instead of 8, so pointer-dense data costs
 *    more cache traffic (Figure 4's cycle and L2-miss overheads);
 *  - globals are reached through a capability GOT; with the original
 *    short-immediate CLC each access costs 3 instructions, with the new
 *    large-immediate CLC it costs 1 (the paper's CLC extension, cutting
 *    code size >10% and the initdb overhead from 11% to 6.8%);
 *  - taking the address of a stack object emits a CSetBounds;
 *  - malloc/free bound their results (a few capability manipulations);
 *  - context switches save/restore a register file of capabilities,
 *    twice the width of integer registers;
 *  - legacy-ABI system calls must construct capabilities from integer
 *    pointer arguments inside the kernel, while CheriABI passes
 *    capabilities directly (why `select`, with four pointer arguments,
 *    got *faster* under CheriABI);
 *  - CHERI-MIPS's separate capability register file relieves integer
 *    register pressure, removing spills in tight kernels (why
 *    security-sha got faster).
 *
 * Cycles = instructions (1 IPC ideal) + per-level miss penalties, with
 * instruction fetch streamed through the L1I.  Once the L1I holds the
 * whole synthetic code footprint it can never miss again, and fetch
 * counts its hits in closed form (see DESIGN.md, "Warm L1I").
 */

#ifndef CHERI_MACHINE_COST_MODEL_H
#define CHERI_MACHINE_COST_MODEL_H

#include "cap/compression.h"
#include "machine/cache.h"

namespace cheri
{

namespace snap
{
struct Access;
}

/** Process ABIs supported by the kernel (paper section 4). */
enum class Abi
{
    /** Legacy SysV mips64: pointers are 64-bit integers via DDC. */
    Mips64,
    /** Pure-capability CheriABI: every pointer is a capability. */
    CheriAbi,
    /**
     * Hybrid mode: only pointers annotated __capability are
     * capabilities; unannotated pointers remain integers checked
     * against DDC (the CHERI C compiler's other mode — the CheriBSD
     * kernel itself is a hybrid program).
     */
    Hybrid,
};

/** Toggleable hardware/compiler features for ablation benches. */
struct MachineFeatures
{
    /** CLC with enlarged immediate (paper's ISA extension, §5.2). */
    bool largeClcImmediate = true;
    /** AddressSanitizer-style instrumentation of loads/stores. */
    bool asanInstrumentation = false;
};

/** Miss penalties for the two-level hierarchy, in cycles. */
struct CyclePenalties
{
    u64 l2Hit = 10;
    u64 memory = 80;
    /** Software-managed TLB refill (trap + walk), per miss. */
    u64 tlbRefill = 30;
};

class CostModel
{
  public:
    /**
     * @param fmt capability format: the 128-bit compressed format is
     *        the paper's benchmarked configuration; the 256-bit
     *        uncompressed alternative doubles pointer footprint again
     *        (footnote 2 — the reason 128-bit is "a more realistic
     *        candidate for commercial adoption").
     */
    CostModel(Abi abi, MachineFeatures features = {},
              compress::CapFormat fmt = compress::CapFormat::Cap128);

    Abi abi() const { return _abi; }
    const MachineFeatures &features() const { return _features; }
    compress::CapFormat capFormat() const { return _format; }

    /** Size of a pointer in guest memory under this ABI and format. */
    u64
    pointerSize() const
    {
        if (_abi != Abi::CheriAbi)
            return 8;
        return _format == compress::CapFormat::Cap256 ? 32 : 16;
    }

    /** Alignment of a pointer in guest memory under this ABI. */
    u64 pointerAlign() const { return pointerSize(); }

    /** @name Charging interface */
    /// @{
    /** @p n ALU/branch instructions with no memory operand. */
    void alu(u64 n = 1) { fetchAndCount(n); }

    /** Capability-manipulation instructions (CSetBounds, CAndPerm...);
     *  free under mips64 where the compiler emits none. */
    void
    capManip(u64 n = 1)
    {
        if (_abi != Abi::Mips64)
            fetchAndCount(n);
    }

    /** A data load of @p size bytes at guest address @p va. */
    void
    load(u64 va, u64 size)
    {
        if (_features.asanInstrumentation)
            asanCheck(va);
        fetchAndCount(1);
        dataAccess(va, size, Access::DataLoad);
    }

    /** A data store of @p size bytes at guest address @p va. */
    void
    store(u64 va, u64 size)
    {
        if (_features.asanInstrumentation)
            asanCheck(va);
        fetchAndCount(1);
        dataAccess(va, size, Access::DataStore);
    }

    /**
     * Access to a global through the GOT entry at @p got_va.  mips64:
     * one ld.  CheriABI: one CLC if the large immediate is available,
     * otherwise a 3-instruction address-materialization sequence.
     */
    void gotLoad(u64 got_va);

    /**
     * Function call/return overhead: frame setup, plus one CSetBounds
     * per address-taken local under CheriABI, plus variadic spill
     * (CheriABI always spills variadics to the stack via a capability).
     */
    void call(u64 sp_va, u64 n_bounded_locals, u64 n_args,
              bool variadic = false);

    /**
     * Register spill/fill pressure: mips64 pays @p mips_spills,
     * CheriABI pays @p cheri_spills (the separate capability register
     * file frees integer registers in pointer-heavy kernels).
     */
    void spills(u64 sp_va, u64 mips_spills, u64 cheri_spills);

    /** Trap + syscall dispatch, with @p n_ptr_args pointer arguments.
     *  See the class comment for the per-ABI asymmetry. */
    void syscall(u64 n_ptr_args);

    /**
     * A kernel/libc word-copy loop moving @p len bytes from @p src_va
     * to @p dst_va: two instructions per 8-byte word plus the cache
     * traffic of both streams.
     */
    void copyLoop(u64 src_va, u64 dst_va, u64 len);

    /** Save/restore one thread's register file. */
    void contextSwitch();

    /**
     * One translation through the software TLB (fed by MemAccess with
     * real hit/miss events): hits are free beyond the access charge
     * already made, misses pay the modelled refill trap.  @p instr
     * selects the iTLB, otherwise the dTLB.
     */
    void
    tlbAccess(bool instr, bool hit)
    {
        if (instr) {
            ++_itlbAccesses;
            if (!hit) {
                ++_itlbMisses;
                _cycles += penalties.tlbRefill;
            }
        } else {
            ++_dtlbAccesses;
            if (!hit) {
                ++_dtlbMisses;
                _cycles += penalties.tlbRefill;
            }
        }
    }
    /// @}

    /** @name Results */
    /// @{
    u64 instructions() const { return _instructions; }
    u64 cycles() const { return _cycles; }
    u64 l2Misses() const { return cacheHier.l2Misses(); }
    u64 l1dMisses() const { return cacheHier.l1dMisses(); }
    /** Static code bytes emitted (tracks the CLC code-size effect). */
    u64 codeBytes() const { return _codeBytes; }
    u64 itlbAccesses() const { return _itlbAccesses; }
    u64 itlbMisses() const { return _itlbMisses; }
    u64 dtlbAccesses() const { return _dtlbAccesses; }
    u64 dtlbMisses() const { return _dtlbMisses; }
    /// @}

    void reset();

    /** The hierarchy, with the warm L1I's deferred hits and LRU stamps
     *  written in. */
    const CacheHierarchy &
    cache()
    {
        settleL1I();
        return cacheHier;
    }

    /** True once the L1I holds every line of the code footprint: from
     *  then until the next reset, fetch runs in closed form. */
    bool instructionCacheWarm() const { return l1iColdLines == 0; }

  private:
    /** Checkpoint/restore preserves cost accounting bit-exactly. */
    friend struct snap::Access;

    /** Guest instructions are 4 bytes; the synthetic PC starts at
     *  codeBase and wraps within codeFootprint, a whole number of
     *  cache lines. */
    static constexpr u64 insnBytes = 4;
    static constexpr u64 codeBase = 0x120000000;
    static constexpr u64 codeFootprint = 16 * 1024;
    static_assert(codeBase % cacheLineBytes == 0 &&
                  codeFootprint % cacheLineBytes == 0);
    static constexpr u64 codeInsns = codeFootprint / insnBytes;
    static constexpr u64 codeLines = codeFootprint / cacheLineBytes;
    static constexpr u64 insnsPerLine = cacheLineBytes / insnBytes;
    static_assert((codeInsns & (codeInsns - 1)) == 0 &&
                  (codeLines & (codeLines - 1)) == 0);

    /**
     * Fetch @p n instructions through the L1I and count them.  Each
     * instruction that starts a cache line fetches that line; the
     * others are free.  Past the first lap of the footprint since a
     * reset, the L1I is warm and this is one O(1) step.
     */
    void
    fetchAndCount(u64 n)
    {
        _instructions += n;
        _cycles += n;
        _codeBytes += n * insnBytes;
        if (l1iColdLines == 0)
            fetchWarm(n);
        else
            fetchLines(n);
    }

    /** fetchAndCount's stream, one cache line per step, until the L1I
     *  is warm. */
    void fetchLines(u64 n);

    /**
     * fetchAndCount on a warm L1I.  The L1I holds the whole footprint
     * (two lines per 4-way set, so nothing evicts them) and only fetch
     * touches it: every line start in [pc, pc + 4n) is a hit.  They
     * are counted here and written into the cache by settleL1I().
     */
    void
    fetchWarm(u64 n)
    {
        u64 first = (pc - codeBase) / insnBytes;
        u64 end = first + n;
        l1iPending += (end + insnsPerLine - 1) / insnsPerLine -
                      (first + insnsPerLine - 1) / insnsPerLine;
        pc = codeBase + (end % codeInsns) * insnBytes;
    }

    /**
     * Write the warm L1I's pending hits into its counters and clock,
     * and its LRU stamps into its ways: the line d lines behind the
     * last one fetched was accessed at tick - d.  A no-op while
     * nothing is pending, so the cache is exactly what the per-line
     * stream would have left.
     */
    void settleL1I();

    /** Footprint index of the line the last fetch touched: the one
     *  holding the instruction before pc. */
    u64
    lastFetchedLine() const
    {
        u64 prev = ((pc - codeBase) / insnBytes + codeInsns - 1) % codeInsns;
        return prev / insnsPerLine;
    }

    /** LRU stamp of footprint line @p line in a warm, settled L1I. */
    u64
    warmStamp(u64 line) const
    {
        return cacheHier.l1i.tick -
               ((lastFetchedLine() - line) & (codeLines - 1));
    }

    /**
     * Visit each way the L1I holds as (way, footprint index of its
     * line), the index being codeLines for a line outside the
     * footprint (which no fetch can load).
     */
    template <typename Fn>
    void
    forEachL1ILine(Fn &&fn)
    {
        Cache &c = cacheHier.l1i;
        for (u64 set = 0; set < c.numSets; ++set) {
            for (u32 w = c.ways - c.fill[set]; w < c.ways; ++w) {
                Cache::Way &way = c.slots[(set << c.wayShift) + w];
                u64 addrLine = way.tag << c.setShift | set;
                u64 line = addrLine - codeBase / cacheLineBytes;
                bool inFootprint = (addrLine >> c.setShift) == way.tag &&
                                   line < codeLines;
                fn(way, inFootprint ? line : codeLines);
            }
        }
    }

    /** Charge the miss penalty of a hierarchy outcome. */
    void
    charge(HitLevel lvl)
    {
        if (lvl == HitLevel::L2)
            _cycles += penalties.l2Hit;
        else if (lvl == HitLevel::Memory)
            _cycles += penalties.memory;
    }

    /** Charge the cache outcome of a data access. */
    void
    dataAccess(u64 va, u64 size, Access kind)
    {
        charge(cacheHier.access(va, size, kind));
    }

    /** ASan shadow check for an access at @p va. */
    void asanCheck(u64 va);

    Abi _abi;
    MachineFeatures _features;
    compress::CapFormat _format;
    CyclePenalties penalties;
    CacheHierarchy cacheHier;
    u64 _instructions = 0;
    u64 _cycles = 0;
    u64 _codeBytes = 0;
    u64 _itlbAccesses = 0;
    u64 _itlbMisses = 0;
    u64 _dtlbAccesses = 0;
    u64 _dtlbMisses = 0;
    /** Synthetic PC: 4-byte aligned, in [codeBase, codeBase +
     *  codeFootprint). */
    u64 pc = codeBase;
    /** Footprint lines the L1I does not hold yet; fetch is in closed
     *  form at 0.  Each L1I miss loads one more line. */
    u64 l1iColdLines = codeLines;
    /** Warm L1I hits not yet written into the cache; each is also a
     *  tick of its clock. */
    u64 l1iPending = 0;
};

} // namespace cheri

#endif // CHERI_MACHINE_COST_MODEL_H
