/**
 * @file
 * The MiniCHERI interpreter: ISA-level execution against a process.
 *
 * Executes encoded MiniCHERI instructions fetched *through PCC* from
 * the process's own memory, with full capability semantics:
 *
 *  - instruction fetch requires a tagged, unsealed, executable PCC
 *    covering the instruction (control flow cannot leave the object
 *    PCC is bounded to);
 *  - legacy loads/stores are indirected through DDC — under CheriABI
 *    DDC is NULL, so every legacy access traps, exactly the paper's
 *    "prohibit legacy loads and stores by installing a NULL capability
 *    in DDC";
 *  - capability-relative accesses check the named capability register;
 *  - derivation instructions are monotonic and raise the architectural
 *    fault on violation;
 *  - every instruction is charged to the process's cost model, and
 *    capability derivations are reported to the trace sink — the same
 *    ISA-level trace pipeline the paper's Figure 5 uses via QEMU;
 *  - Op::Syscall enters the process's kernel through Kernel::dispatch,
 *    the one syscall path, which marshals arguments from the register
 *    file and applies the errno register convention.
 *
 * Faults do not unwind the host: run() returns a Fault result with the
 * precise PC and cause, like a stopped debuggee.  Everything run()
 * defers (the PCC write-back, batched charges, the retired count) is
 * settled before anything outside the loop can observe it, so its
 * results are exactly those of executing one instruction at a time.
 */

#ifndef CHERI_ISA_INTERP_H
#define CHERI_ISA_INTERP_H

#include <array>
#include <optional>

#include "isa/insn.h"
#include "os/process.h"
#include "trace/trace.h"

namespace cheri::obs
{
class Metrics;
}

namespace cheri::snap
{
struct Access;
}

namespace cheri::isa
{

/** Why execution stopped. */
struct InterpResult
{
    enum class Status
    {
        Running,
        Halted,
        Fault,
        StepLimit,
        /** A runSlice() budget expired or a yield was requested: the
         *  context is still runnable and resumes at the saved PCC.
         *  Raised only between instructions, never mid-instruction. */
        Preempted,
    };
    Status status = Status::Halted;
    u64 steps = 0;
    CapFault fault = CapFault::None;
    /** PC of the faulting instruction. */
    u64 faultPc = 0;
    /** Effective address of the faulting access (0 when the fault did
     *  not involve one, e.g. a derivation failure). */
    u64 faultAddr = 0;
    /** Opcode of the faulting instruction; empty when no instruction
     *  was fetched (a fetch fault) and when nothing faulted. */
    std::optional<Op> faultOp;
};

class Interpreter
{
  public:
    /**
     * Executes with @p proc's register file, memory, and cost model;
     * syscalls go to @p proc's kernel.  The kernel's observability
     * registry, if any, is attached now and again at every runSlice():
     * every decoded instruction feeds the per-ABI instruction-mix
     * profiler and every fault is recorded with its cause, PC, and
     * offending capability (for provenance attribution).
     */
    explicit Interpreter(Process &proc, TraceSink *trace = nullptr);

    /** The live register file (the process's current thread). */
    ThreadRegs &regs() { return proc.regs(); }

    /** Set PCC to @p entry (must already be an executable capability
     *  under CheriABI; an untagged address under mips64). */
    void
    setEntry(const Capability &entry)
    {
        proc.regs().pcc = entry;
    }

    /**
     * Execute until halt, fault, or @p max_steps.  One dispatch loop
     * runs every instruction; the work around each one is hoisted out
     * of it (see DESIGN.md, "The dispatch loop"): PCC is checked once
     * per fetch window and written back only at sync points, and the
     * fetch-hit and ALU charges are made in batches before anything
     * outside the loop can see them.
     */
    InterpResult run(u64 max_steps = 1'000'000);

    /**
     * Execute one scheduler time slice: like run() but a spent budget
     * yields Status::Preempted (the context is runnable, not out of
     * steps).  Also returns Preempted as soon as a requestYield() is
     * observed — checked after each retired instruction, so preemption
     * lands only at instruction boundaries.  Re-reads the kernel's
     * registry first: it may have been attached since the last slice.
     */
    InterpResult runSlice(u64 budget);

    /**
     * Ask the run loop to stop at the next instruction boundary
     * (Preempted).  Safe to call from inside a syscall: the
     * in-flight instruction completes first, including its PC
     * writeback.  Cleared when honored.
     */
    void requestYield() { yieldPending = true; }

    /** Instructions retired over this interpreter's lifetime. */
    u64 retired() const { return _retired; }

  private:
    /** Checkpoint/restore carries the retired-step counter across (the
     *  decode cache deliberately restarts cold — it is pure cache). */
    friend struct snap::Access;

    /** Fetch+decode at PCC, checking PCC first; may fault.  run()
     *  calls it for a pc outside its fetch window. */
    Insn fetch();

    /** Take the kernel's registry (nullable; one branch when absent). */
    void attachMetrics();

    /**
     * Decoded-instruction micro-cache, keyed on (va, MemAccess fetch
     * generation): a hit skips both the memory read and the decode.
     * The generation increments on every TLB invalidation and on any
     * write to an executable page, so self-modifying code always
     * re-fetches.  The cache only elides the MMU/decode work, never
     * the capability check: run() serves it only to a pc inside PCC's
     * fetch window.  A hit counts a modelled iTLB hit without
     * consulting the iTLB, so only a cache of this shape keeps the
     * modelled iTLB counts.
     */
    struct DecodeEntry
    {
        u64 va = ~u64{0};
        u64 gen = 0;
        Insn insn;
    };
    static constexpr u64 decodeCacheSize = 256;

    /** A decode-cache miss: read and decode the instruction at @p pc
     *  into @p e; may fault. */
    const Insn &decodeInto(DecodeEntry &e, u64 pc);

    Process &proc;
    TraceSink *traceSink;
    obs::Metrics *mx = nullptr;
    u64 _retired = 0;
    bool yieldPending = false;
    std::array<DecodeEntry, decodeCacheSize> dcache{};
};

} // namespace cheri::isa

#endif // CHERI_ISA_INTERP_H
