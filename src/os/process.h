/**
 * @file
 * Processes: the unit of abstract-capability ownership.
 *
 * Each process owns an address space (one abstract principal), a file
 * table, signal state, and one thread of capability register state.
 * A process runs under one of the two ABIs the kernel supports — legacy
 * mips64 (integer pointers, address-space-wide DDC) or CheriABI (pure
 * capabilities, DDC == NULL) — chosen at execve time, exactly as
 * CheriBSD runs both userspace flavors side by side.
 */

#ifndef CHERI_OS_PROCESS_H
#define CHERI_OS_PROCESS_H

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "machine/cost_model.h"
#include "machine/regs.h"
#include "mem/access.h"
#include "mem/vm.h"
#include "os/signal.h"
#include "os/vfs.h"
#include "rtld/rtld.h"

namespace cheri
{

class Kernel;

namespace snap
{
struct Access;
}

/** Why a process died, when it did not exit normally. */
struct DeathInfo
{
    int signal = 0;
    CapFault fault = CapFault::None;
    u64 faultAddr = 0;
    std::string detail;
    /** The offending capability, when the trap carried one — lets the
     *  observability layer attribute the fault to its DeriveSource. */
    Capability faultCap;
    bool faultCapKnown = false;
    /** The deadlock watchdog killed this process to break a wait-for
     *  cycle; wait4 surfaces the reap as E_DEADLK. */
    bool deadlock = false;
};

/** One kernel-scheduled thread context within a process. */
struct ThreadRecord
{
    u64 tid = 0;
    /** Register file while the thread is switched out.  Saved and
     *  restored by the kernel with tags intact (paper Figure 2). */
    ThreadRegs saved;
    /** This thread's stack capability (bounded to its own stack). */
    Capability stackCap;
    bool live = true;
};

class Process
{
  public:
    Process(Kernel &kernel, u64 pid, u64 ppid, Abi abi, std::string name,
            std::unique_ptr<AddressSpace> as, MachineFeatures features);

    // (The cost model inherits the address space's capability format.)

    /** @name Identity */
    /// @{
    u64 pid() const { return _pid; }
    u64 ppid() const { return _ppid; }
    Abi abi() const { return _abi; }
    const std::string &name() const { return _name; }
    /// @}

    AddressSpace &as() { return *_as; }
    const AddressSpace &as() const { return *_as; }

    /** The unified guest-memory access path (software TLB) for this
     *  process; all kernel and interpreter accesses to this process's
     *  memory go through here. */
    MemAccess &mem() { return _mem; }

    /** Register state of the *currently running* thread. */
    ThreadRegs &regs() { return _regs; }
    const ThreadRegs &regs() const { return _regs; }

    /** @name Threads */
    /// @{
    u64 currentTid() const { return curThread; }
    u64 threadCount() const;
    ThreadRecord *threadById(u64 tid);
    /** Visit every thread record (live and exited) read-only — the
     *  checking layer audits saved register files of switched-out
     *  threads, which hold tagged capabilities the kernel must have
     *  preserved intact. */
    template <typename Fn>
    void
    forEachThread(Fn &&fn) const
    {
        for (const auto &t : threads)
            fn(t);
    }
    /** Mutable variant: the revocation sweep clears tags in the saved
     *  register files of switched-out threads in place. */
    template <typename Fn>
    void
    forEachThread(Fn &&fn)
    {
        for (auto &t : threads)
            fn(t);
    }
    /// @}

    /** Per-process execution cost counters (per-ABI). */
    CostModel &cost() { return _cost; }

    /** @name File descriptors */
    /// @{
    int allocFd(OpenFileRef file);
    OpenFileRef fd(int n) const;
    int closeFd(int n);
    /** Close every open descriptor (process-exit teardown): each
     *  last-close fires its channel's wake edges, so readers blocked
     *  on a dying writer see EOF and writers see EPIPE. */
    void closeAllFds();
    u64 fdCount() const;
    /** Share or copy the table into @p child (fork semantics: open-file
     *  descriptions are shared, the table itself is copied). */
    void cloneFdsInto(Process &child) const;
    /// @}

    /** @name Signal state */
    /// @{
    SigAction &sigaction(int sig) { return sigActions.at(sig); }
    /** Register guest handler code; returns its handler id. */
    u64 registerHandler(SigHandler fn);
    const SigHandler *handlerById(u64 id) const;
    void raiseSignal(int sig);
    u64 pendingSignals() const { return sigPending; }
    void clearPending(int sig) { sigPending &= ~(u64{1} << sig); }
    u64 sigMask = 0;
    /// @}

    /** @name Lifecycle (a process ends only through Kernel::endProcess) */
    /// @{
    bool exited() const { return _exited; }
    int exitStatus() const { return _exitStatus; }
    const std::optional<DeathInfo> &death() const { return _death; }
    /// @}

    /** Image linked into this process by execve. */
    LinkedImage image;

    /** @name CheriABI startup capabilities (Figure 1)
     * Under mips64 these hold untagged address-only capabilities.
     */
    /// @{
    Capability stackCap;
    Capability argvCap;
    Capability envvCap;
    Capability auxvCap;
    Capability trampolineCap;
    int argc = 0;
    int envc = 0;
    /// @}

    /**
     * The DDC this process runs with: NULL for CheriABI (no ambient
     * authority), the address-space root for mips64.
     */
    const Capability &ddc() const { return _regs.ddc; }

    /** Heap management state for the guest allocator. */
    u64 heapHint = 0x40000000;

    /** Legacy brk state (mips64 only; CheriABI excludes sbrk). */
    u64 brkBase = 0;
    u64 brkCur = 0;
    u64 brkLimit = 0;

    /**
     * Signal frames currently spilled on the kernel side of a handler
     * invocation (innermost last).  While a handler runs, the
     * *interrupted* context's capabilities live in this kernel copy,
     * not in the register file — so the revocation sweep must reach
     * them here or a revoked capability would be resurrected by
     * sigreturn.
     */
    std::vector<SigFrame *> liveSigFrames;

    Kernel &kernel() { return kern; }

  private:
    void exit(int status);
    void die(const DeathInfo &info);
    Kernel &kern;
    u64 _pid;
    u64 _ppid;
    Abi _abi;
    std::string _name;
    std::unique_ptr<AddressSpace> _as;
    ThreadRegs _regs;
    CostModel _cost;
    MemAccess _mem;
    std::vector<OpenFileRef> fds;
    /** Thread records need stable addresses: growth must not move
     *  existing elements (callers hold ThreadRecord pointers across
     *  creation), hence a deque rather than a vector. */
    std::deque<ThreadRecord> threads;
    u64 curThread = 0;
    u64 nextTid = 1;
    std::array<SigAction, numSignals> sigActions{};
    std::vector<SigHandler> handlers;
    u64 sigPending = 0;
    bool _exited = false;
    int _exitStatus = 0;
    std::optional<DeathInfo> _death;

    friend class Kernel;
    /** Checkpoint/restore rebuilds processes field by field. */
    friend struct snap::Access;
};

} // namespace cheri

#endif // CHERI_OS_PROCESS_H
