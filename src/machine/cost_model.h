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
 * instruction fetch streamed through the L1I.
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

    CacheHierarchy &cache() { return cacheHier; }

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

    /**
     * Fetch @p n instructions through the L1I and count them.  Each
     * instruction that starts a cache line fetches that line; the
     * others are free.  A run that starts inside a line and ends by
     * its end is the common case and touches no cache.
     */
    void
    fetchAndCount(u64 n)
    {
        _instructions += n;
        _cycles += n;
        _codeBytes += n * insnBytes;
        u64 off = pc % cacheLineBytes;
        if (off != 0 && n <= (cacheLineBytes - off) / insnBytes) {
            pc += n * insnBytes;
            if (pc == codeBase + codeFootprint)
                pc = codeBase;
            return;
        }
        fetchLines(n);
    }

    /** fetchAndCount's stream, one cache line per step. */
    void fetchLines(u64 n);

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
};

} // namespace cheri

#endif // CHERI_MACHINE_COST_MODEL_H
