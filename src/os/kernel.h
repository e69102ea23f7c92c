/**
 * @file
 * The MiniBSD kernel: a capability-aware UNIX kernel model.
 *
 * Implements the CheriABI process environment from the paper: process
 * creation (execve installing capabilities into registers and memory,
 * Figure 1), fork with COW, context switching that preserves capability
 * state, tag-aware swapping, signal delivery with capability frames
 * (Figure 2), and a system-call layer in which *every* access to user
 * memory for a CheriABI process is mediated by a user-supplied
 * capability (Figure 3) — non-capability copyin/copyout paths return
 * errors for CheriABI processes, tags are stripped on ordinary copies
 * unless a capability-aware interface is used, and address-space
 * management calls demand the vmmap software permission.
 */

#ifndef CHERI_OS_KERNEL_H
#define CHERI_OS_KERNEL_H

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mem/mem_events.h"
#include "os/counters.h"
#include "os/panic.h"
#include "os/process.h"
#include "os/revocation.h"
#include "os/sysnum.h"
#include "os/user_ptr.h"
#include "trace/trace.h"

namespace cheri
{

namespace obs
{
class Metrics;
}

namespace snap
{
struct Access;
}

namespace sched
{
class Scheduler;
}

/** mmap(2) flags. */
enum MmapFlags : u32
{
    MAP_SHARED = 0x0001,
    MAP_PRIVATE = 0x0002,
    MAP_FIXED = 0x0010,
    MAP_ANON = 0x1000,
    MAP_GUARD = 0x2000,
};

/** kevent filter kinds (simplified). */
enum class KFilter : s64
{
    Read = -1,
    Write = -2,
    User = -11,
};

/** One kevent registration / report. */
struct KEvent
{
    int ident = -1; // fd
    KFilter filter = KFilter::Read;
    /**
     * Opaque user data.  The kernel stores the full capability in its
     * internal structures so a CheriABI process gets its pointer back
     * with the tag intact (paper section 4, "System calls").
     */
    Capability udata;
};

/** ptrace(2) request codes (subset). */
enum class PtReq
{
    Attach,
    Detach,
    ReadData,
    WriteData,
    ReadCap,
    /** Inject a capability: rederived from the *target's* root. */
    WriteCap,
    GetRegs,
    SetRegs,
};

/** ioctl command codes used by tests and workloads. */
enum IoctlCmd : u64
{
    /** Get terminal attributes into a flat struct (no pointers). */
    TIOCGETA_SIM = 0x402c7413,
    /**
     * Device-name query whose argument struct *contains a pointer*
     * (modeled on FIODGNAME / the DHCP bcast-addr bug): the kernel must
     * follow the interior pointer with the user's capability.
     */
    FIODGNAME_SIM = 0x80106678,
    /** Returns a kernel pointer; kernel exposes only the address. */
    KINFO_ADDR_SIM = 0x40087001,
};

/** Argument block for FIODGNAME_SIM. */
struct FiodgnameArg
{
    u64 len = 0;
    /** Interior pointer: capability under CheriABI (16 bytes in guest
     *  memory), integer address under mips64. */
    UserPtr buf;
};

/**
 * What the scheduler's deadlock watchdog does when an idle pass finds
 * blocked contexts whose wait-for analysis proves no guest or host
 * waker can ever reach them (a true cycle or an orphaned wait).
 */
enum class DeadlockPolicy
{
    /** Count and flight-record the stuck set; leave it parked (a host
     *  driver may still intervene).  The default. */
    Report,
    /** OOM-killer style: kill a deterministically chosen victim with
     *  SIG_KILL; its parent's wait4 reports E_DEADLK.  The decision is
     *  routed through the fault-injection tap so record/replay
     *  substitutes it bit-for-bit. */
    Kill,
};

/** Kernel-wide configuration. */
struct KernelConfig
{
    compress::CapFormat capFormat = compress::CapFormat::Cap128;
    SwapPolicy swapPolicy = SwapPolicy::PreserveTags;
    MachineFeatures features = {};
    /** Default stack size for new processes. */
    u64 stackSize = 8 * 1024 * 1024;
    /** Nonzero: randomize mapping placement (per-process slide). */
    u64 aslrSeed = 0;
    /**
     * Max live physical frames (0 = unlimited).  Exceeding it runs a
     * kernel reclaim pass (LRU eviction across processes, then OOM
     * kill); keep it above ~32 so a process image can always load.
     */
    u64 frameCapacity = 0;
    /** Max occupied swap slots (0 = unlimited).  A full device turns
     *  reclaim into OOM kill. */
    u64 swapSlotBudget = 0;
    /** Pages scanned per incremental revocation slice — the bound on
     *  revocation work any single dispatch() absorbs. */
    u64 revokeSliceBudget = 8;
    /** Guest instructions an execution context may retire before the
     *  scheduler preempts it.  Preemption is raised as an interpreter
     *  step-budget expiry, so it lands only at instruction
     *  boundaries — never mid-instruction. */
    u64 timeSliceSteps = 512;
    /** Deadlock watchdog policy for the scheduler's idle scan. */
    DeadlockPolicy deadlockPolicy = DeadlockPolicy::Report;
    /** Flight-recorder ring depth: kernel events retained for the
     *  panic report (0 keeps counting but retains nothing). */
    u64 flightRecorderDepth = 64;
};

class Kernel : private panic::Sink, private MemEvents
{
  public:
    explicit Kernel(KernelConfig cfg = {});
    ~Kernel();

    /** @name Subsystems */
    /// @{
    PhysMem &physMem() { return phys; }
    SwapDevice &swapDevice() { return swap; }
    /** Deterministic failure injection for the frame-allocation,
     *  swap-out, and swap-in choke points. */
    FaultInjector &faultInjector() { return injector; }
    /** The kernel's counters (os/counters.h): the only copy.  An
     *  attached Metrics registry reads them when it emits. */
    const KernelCounters &counters() const { return *stats; }
    /** The kernel's scheduler counts into this block. */
    SchedStats &schedStats() { return stats->sched; }
    /** The kernel-event flight recorder (syscalls, sched edges, fault
     *  decisions, watchdog verdicts, machine checks); its ring is
     *  dumped into every panic report. */
    panic::FlightRecorder &flightRecorder() { return recorder; }
    const panic::FlightRecorder &flightRecorder() const { return recorder; }
    Vfs &vfs() { return fs; }
    Rtld &rtld() { return linker; }
    const KernelConfig &config() const { return cfg; }
    void setTrace(TraceSink *sink) { traceSink = sink; }
    TraceSink *trace() const { return traceSink; }
    /** Attach/detach the observability registry (nullable; costs one
     *  branch per syscall/fault when absent).  Also (re)wires every
     *  live process's MemAccess TLB counter block, and hands the
     *  registry a shared reference to counters(), which it keeps
     *  reading until its next reset(). */
    void setMetrics(obs::Metrics *m);
    obs::Metrics *metrics() const { return mx; }
    /// @}

    /**
     * @name Numbered syscall dispatch (the ABI choke point)
     *
     * dispatch() is the single entry through which guest syscalls flow:
     * it decodes @p code via the SysNum table, marshals arguments from
     * the current thread's register file (integers from x[regArg0+i];
     * pointer arguments from c[regArg0+i] as capabilities under
     * CheriABI, from x[regArg0+i] as bare addresses under mips64), runs
     * the internal sysFoo implementation, and converts the SysResult to
     * the register-level errno convention in one place:
     *
     *   success:  x[regSysErr] = 0, x[regRetVal] = value
     *   failure:  x[regSysErr] = 1, x[regRetVal] = errno
     *
     * Pointer-returning syscalls (mmap, shmat) additionally install the
     * result in c[regRetVal] — a tagged, bounded capability under
     * CheriABI, an untagged address otherwise.  Metrics, tracing, and
     * batching all attach here instead of at N bespoke call sites.
     */
    /// @{
    SysResult dispatch(Process &proc, u64 code);
    /// @}

    /** @name Process lifecycle */
    /// @{
    /** Create an empty process (fresh principal, no image). */
    Process *spawn(Abi abi, const std::string &name);

    /**
     * Replace @p proc's address space with a fresh one and load
     * @p program into it: map segments via the RTLD, build the initial
     * stack with argv/envv/auxv (as bounded capabilities under
     * CheriABI), map the signal trampoline, and install the startup
     * register file (Figure 1).
     */
    int execve(Process &proc, const SelfObject &program,
               const std::vector<std::string> &argv,
               const std::vector<std::string> &envv);

    /** fork(2): COW address space, shared open files, copied regs. */
    Process *fork(Process &parent);

    /** Find a live process by pid. */
    Process *findProcess(u64 pid);

    /** Reap a zombie child; returns its pid or an errno. */
    SysResult wait4(Process &parent, u64 pid);

    /** exit(2) through the one teardown (endProcess); no effect on a
     *  process that already ended. */
    void exitProcess(Process &proc, int status)
    {
        endProcess(proc, std::nullopt, status);
    }

    /** A capability fault (or SIG_PIPE): a handler registered for the
     *  signal (SIG_PROT unless @p info names one) runs; otherwise the
     *  process dies through the one teardown, leaving a core file.
     *  The fault goes to the metrics registry unless @p recorded says
     *  the trapping layer already put it there. */
    void faultProcess(Process &proc, const DeathInfo &info,
                      bool recorded = false);

    /** Account a context switch to @p proc (cost model + counters). */
    void contextSwitchTo(Process &proc);

    /** @name Threads (thr_new / thr_switch)
     * Additional kernel-scheduled contexts in one process.  Each gets
     * its own stack mapping with a bounded stack capability; the
     * kernel saves and restores the full capability register file on
     * switch, tags intact (the "capability-register context
     * switching" of the paper's prior CheriBSD work, now per ABI).
     */
    /// @{
    /** Create a thread; returns its tid, or an errno. */
    SysResult sysThrNew(Process &proc, u64 stack_size = 1 << 20);
    /** Switch the running context to @p tid (0 = the initial thread).
     *  From an interpreted guest the scheduler is running this is a
     *  directed yield: the switch happens at the next slice boundary,
     *  not mid-instruction.  From the host it switches at once. */
    SysResult sysThrSwitch(Process &proc, u64 tid);
    /** Mark @p tid exited.  Exiting the running thread is allowed:
     *  teardown defers to the scheduler's next pick (the thread is a
     *  zombie until then); when the last live thread self-exits the
     *  process exits with status 0. */
    SysResult sysThrExit(Process &proc, u64 tid);
    /**
     * Save the running thread's register file into its record and
     * restore @p tid's — the capability-register context switch shared
     * by sysThrSwitch and the scheduler.  Returns an errno (E_SRCH for
     * unknown/dead tids; E_OK when @p tid already runs).
     */
    int switchThreadContext(Process &proc, u64 tid);
    /// @}

    u64 contextSwitches() const { return switches; }
    /// @}

    /** @name Scheduler (src/os/sched)
     * The kernel constructs one scheduler and owns it for its whole
     * life (a restore replaces it with the image's).  runUntilIdle()
     * is the single execution entry every driver uses: it drains the
     * run queue with round-robin time slices until every context is
     * done or blocked forever.
     */
    /// @{
    sched::Scheduler &scheduler() { return *sch; }
    /** Run the scheduler until the run queue is empty and no sleeper
     *  can be woken by advancing the virtual clock.  A kernel panic
     *  unwinding out of the drain is absorbed (panicReset), never
     *  propagated to the host. */
    void runUntilIdle();
    /**
     * Slice-boundary background work: pump any open revocation epoch
     * and, when the frame budget is exhausted, run a one-frame reclaim
     * pass on @p proc's behalf — so revocation and reclaim make
     * progress even when no syscall is in flight.
     */
    void backgroundTick(Process &proc);
    /**
     * An FD wake edge: wait-channel @p chan fired (data arrived, space
     * freed, or one end closed).  Wakes every context parked on it and
     * accounts the wakes.  The single funnel for all FD wake paths —
     * sysRead/sysWrite after a successful transfer, and close (both
     * explicit sysClose and the implicit close-all at process exit).
     */
    void fireFdEdge(u64 chan);
    /// @}

    /** @name Structured panic (src/os/panic.h)
     * The kernel registers itself as the innermost panic sink for its
     * lifetime: a CHERI_KASSERT failure anywhere in kernel or memory
     * code lands in onKassert, which captures the flight-recorder ring
     * into a JSON panic report, emits a CHRIIMG1 snapshot through the
     * installed hook, and unwinds to the nearest catch site — the
     * scheduler drain or dispatch() — where panicReset() rebuilds the
     * kernel empty.  The host process never aborts; the snapshot is a
     * postmortem artifact for `cheri_replay restore`.
     */
    /// @{
    /**
     * Transactionally reset the kernel to its just-constructed state:
     * scheduler contexts retired, processes destroyed (frames and swap
     * slots returned), VFS/shm/kqueue/epoch tables rebuilt empty, and
     * injector arms cleared.  The hardening counters and the captured
     * panic report survive; an attached Metrics registry is reset and
     * re-attached to this kernel alone.
     */
    void panicReset();
    /** True when a panic has been captured (report + image valid). */
    bool panicked() const { return lastPanicValid; }
    const std::string &panicReportJson() const { return lastPanicReport; }
    /** The CHRIIMG1 snapshot captured at panic time (empty when no
     *  snapshot hook was installed or the capture itself failed). */
    const std::vector<u8> &panicImage() const { return lastPanicImage; }
    /** Install the panic-time snapshot capturer (snapshot layering: the
     *  core kernel library cannot link the snapshot writer, so
     *  snap::installPanicSnapshotHook injects it from above). */
    void setPanicSnapshotHook(std::function<std::vector<u8>(Kernel &)> fn)
    {
        panicSnapHook = std::move(fn);
    }
    /** Test seam: the @p nth upcoming dispatch() (1 = the very next)
     *  fails a planted kassert with otherwise-consistent state. */
    void plantPanicAtDispatch(u64 nth) { panicPlant = nth; }
    /// @}

    /** @name Deadlock-watchdog support (called by the scheduler)
     * The watchdog itself lives in the scheduler's idle branch — only
     * it can see the blocked-context census — but victim kill and the
     * wait-for graph's FD edges need kernel state.
     */
    /// @{
    /** Live processes able to fire wait-channel @p chan: holders of
     *  the peer end of the pipe/pty whose read (for writeWait tokens)
     *  or write (for readWait tokens) would wake the parked context.
     *  Closing the peer end fires the same edge, so mere possession
     *  counts. */
    std::vector<u64> fdWakerPids(u64 chan) const;
    /** Record one watchdog detection of @p stuck_contexts stuck
     *  contexts (metrics + flight recorder). */
    void noteDeadlockDetected(u64 stuck_contexts);
    /** Break a deadlock by killing @p victim with SIG_KILL through the
     *  one process teardown; its parent's wait4 reports E_DEADLK.
     *  @p why is the wait-for attribution recorded in the DeathInfo. */
    void deadlockKill(Process &victim, const std::string &why);
    /// @}

    /** @name User-memory access (Figure 3 semantics)
     * All return an errno (E_OK on success).  For CheriABI processes a
     * non-capability UserPtr is rejected with E_PROT, and capability
     * checks use exactly the user-supplied capability.  Transfers run
     * through the process's MemAccess (software-TLB) path.
     *
     * Like the BSD originals, copyout is not atomic across pages: when
     * E_FAULT is reported mid-range, bytes up to the faulting page
     * boundary have already reached user memory (and copyin has
     * partially filled @p dst).  The capability/DDC check still covers
     * the whole range up front, so partial transfers only arise from
     * translation faults, never from authority violations.
     */
    /// @{
    int copyin(Process &proc, const UserPtr &src, void *dst, u64 len);
    int copyout(Process &proc, const void *src, const UserPtr &dst,
                u64 len);
    /** NUL-terminated string copyin, bounded by @p max (page-chunked;
     *  E_RANGE when @p max bytes pass without a NUL). */
    int copyinstr(Process &proc, const UserPtr &src, std::string *out,
                  u64 max = 1024);
    /** Capability-preserving variants for the few interfaces that
     *  legitimately carry pointers (kevent, signal frames, ioctl). */
    int copyincap(Process &proc, const UserPtr &src, Capability *out);
    int copyoutcap(Process &proc, const Capability &cap,
                   const UserPtr &dst);
    /// @}

    /** @name File system calls */
    /// @{
    SysResult sysOpen(Process &proc, const UserPtr &path, u32 flags);
    SysResult sysClose(Process &proc, int fd);
    SysResult sysRead(Process &proc, int fd, const UserPtr &buf, u64 len);
    SysResult sysWrite(Process &proc, int fd, const UserPtr &buf,
                       u64 len);
    SysResult sysLseek(Process &proc, int fd, s64 off, int whence);
    /** pipe2-style: @p flags may carry O_NONBLOCK for both ends. */
    SysResult sysPipe(Process &proc, int fds_out[2], u32 flags = 0);
    SysResult sysDup(Process &proc, int fd);
    SysResult sysGetcwd(Process &proc, const UserPtr &buf, u64 len);
    /**
     * select(2) over three fd sets passed as u64 bitmasks plus a
     * timeval-sized argument — four pointer arguments, the paper's
     * best-case syscall for CheriABI.
     */
    SysResult sysSelect(Process &proc, int nfds, const UserPtr &readfds,
                        const UserPtr &writefds, const UserPtr &exceptfds,
                        const UserPtr &timeout);
    /// @}

    /** @name Virtual-memory system calls (paper section 4) */
    /// @{
    /**
     * mmap(2).  On success *out_ptr holds the CheriABI result: a
     * capability bounded to the (representability-padded) mapping with
     * permissions derived from @p prot plus vmmap — or, for a hinted
     * request with a tagged hint, a capability derived from the hint,
     * preserving provenance.  mips64 processes get an untagged address.
     */
    SysResult sysMmap(Process &proc, const UserPtr &addr, u64 len,
                      u32 prot, u32 flags, UserPtr *out_ptr);
    SysResult sysMunmap(Process &proc, const UserPtr &addr, u64 len);
    /**
     * File-backed mmap: map @p len bytes of @p fd starting at
     * @p offset.  Pages fill from the file on first touch;
     * MAP_PRIVATE writes stay private; msync writes MAP_SHARED pages
     * back.  Returns the CheriABI capability via @p out_ptr like
     * sysMmap.
     */
    SysResult sysMmapFd(Process &proc, int fd, u64 offset, u64 len,
                        u32 prot, u32 flags, UserPtr *out_ptr);
    /** Write resident MAP_SHARED pages back to the backing file. */
    SysResult sysMsync(Process &proc, const UserPtr &addr, u64 len);
    SysResult sysMprotect(Process &proc, const UserPtr &addr, u64 len,
                          u32 prot);
    /** shmget/shmat/shmdt System V shared memory. */
    SysResult sysShmget(Process &proc, u64 key, u64 size);
    SysResult sysShmat(Process &proc, int shmid, const UserPtr &addr,
                       UserPtr *out_ptr);
    SysResult sysShmdt(Process &proc, const UserPtr &addr);
    /** sbrk is excluded by principle (paper section 4). */
    SysResult sysSbrk(Process &proc, s64 delta);
    /// @}

    /** @name Signals */
    /// @{
    SysResult sysSigaction(Process &proc, int sig, SigAction act);
    SysResult sysKill(Process &proc, u64 pid, int sig);
    SysResult sysSigprocmask(Process &proc, u64 block, u64 unblock);
    /**
     * Deliver pending unblocked signals: spill the capability register
     * file to a stack signal frame, run the handler, restore on return
     * (Figure 2).  Returns the number of handlers run.
     */
    u64 deliverSignals(Process &proc);
    /// @}

    /** @name Event and management interfaces */
    /// @{
    /** Register @p changes and harvest up to @p max_events triggered
     *  events into @p events (kevent(2), simplified level-triggered). */
    SysResult sysKevent(Process &proc, const std::vector<KEvent> &changes,
                        std::vector<KEvent> *events, u64 max_events);
    SysResult sysIoctl(Process &proc, int fd, u64 cmd,
                       const UserPtr &arg);
    /** sysctl-like: kern.pid_addr exposes a virtual address, never a
     *  kernel capability (paper: interfaces altered to expose VAs). */
    SysResult sysSysctl(Process &proc, const std::string &name,
                        const UserPtr &oldp, u64 oldlen);
    /// @}

    /** @name Debugging (ptrace) */
    /// @{
    SysResult sysPtrace(Process &debugger, PtReq req, u64 pid, u64 addr,
                        void *host_buf, u64 len);
    /** Capability read/write variants. */
    SysResult ptraceReadCap(Process &debugger, u64 pid, u64 addr,
                            Capability *out);
    SysResult ptraceWriteCap(Process &debugger, u64 pid, u64 addr,
                             const Capability &cap);
    SysResult ptraceGetRegs(Process &debugger, u64 pid, ThreadRegs *out);
    /// @}

    /** @name Misc */
    /// @{
    SysResult sysGetpid(Process &proc);
    SysResult sysGetppid(Process &proc);
    /** @name Counting events (the blocking-wait primitive)
     * Each process has a saturating event counter.  ev_post increments
     * @p pid's counter (0 = self) and wakes its EventWait contexts;
     * ev_wait consumes one event or blocks until one is posted.
     * sleep(ticks) blocks until the scheduler's virtual clock — total
     * guest instructions retired — has advanced @p ticks.  Only an
     * interpreted guest the scheduler is running can block: called
     * from the host, ev_wait reports E_BUSY when it would block and
     * sleep completes immediately.
     */
    /// @{
    SysResult sysEvPost(Process &proc, u64 pid);
    SysResult sysEvWait(Process &proc);
    SysResult sysSleep(Process &proc, u64 ticks);
    /// @}
    /**
     * The unified revocation syscall (revoke2): run an epoch-based
     * sweep over a set of [lo, hi) ranges — resident and swapped pages
     * (cap-dirty only, unless REVOKE_FORCE_FULL), then, at close, the
     * shared pages once more and every kernel-held root
     * (forEachRootCap).
     *
     *   REVOKE_SYNC        whole epoch now; result = tags revoked.
     *                      Empty range set: drain an open epoch.
     *   REVOKE_INCREMENTAL open + one bounded slice; result = pages
     *                      still queued (0 = closed).  Empty range
     *                      set: advance the open epoch one slice.
     *   REVOKE_FORCE_FULL  scan every content page (composable).
     *
     * Exactly one of SYNC/INCREMENTAL must be set.  Opening while an
     * epoch is already open is E_BUSY; a SYNC drive that cannot make
     * progress (persistent swap-device failure) returns E_INTR with
     * the epoch left open for retry.
     */
    SysResult sysRevoke2(Process &proc,
                         const std::vector<std::pair<u64, u64>> &ranges,
                         u32 flags);

    /** This process's revocation epoch state (created on demand). */
    RevocationEpoch &revocationEpoch(u64 pid) { return revEpochs[pid]; }

    /** Read-only epoch lookup that never creates state (the oracle). */
    const RevocationEpoch *
    findRevocationEpoch(u64 pid) const
    {
        auto it = revEpochs.find(pid);
        return it == revEpochs.end() ? nullptr : &it->second;
    }

    /** The quiescent-point clock the oracle compares
     *  RevocationEpoch::closeSeq against.  It advances on every
     *  dispatch() entry, on every direct sys* entry (chargeSyscall),
     *  and once at each revocation-epoch close — so a close marks one
     *  unique point regardless of which path drove it, and any later
     *  kernel entry (under which the guest may legitimately re-derive
     *  into the revoked ranges) moves the clock past it. */
    u64 quiescentCount() const { return quiescentSeq; }

    /**
     * The one list of kernel-held capability roots of @p proc — every
     * capability the kernel keeps outside the page tables.  Calls
     * @p fn(const RootSite &, Capability &) for the running register
     * file, each thread record's saved registers and stack capability,
     * the interrupted contexts of live signal frames, the five startup
     * slots and the kevent udata, in that order.  The revocation close
     * sweep clears tags through it; the invariant oracle (rules 1, 2
     * and 7) checks the same list, passing a const Process.
     */
    template <typename P, typename Fn> void forEachRootCap(P &proc, Fn &&fn);

    /**
     * Allocate a range of @p count object types to the process,
     * returning (via @p out) a sealing authority: a capability with
     * PERM_SEAL|PERM_UNSEAL whose bounds cover exactly that otype
     * range (libcheri's sandbox-type allocator).
     */
    SysResult sysOtypeAlloc(Process &proc, u64 count, Capability *out);
    /// @}

    /** Fresh abstract principal id (never reused). */
    u64 newPrincipal() { return nextPrincipal++; }

    /** @name Checking-layer hooks (src/check)
     * forEachProcess and forEachShmFrame expose the kernel's ownership
     * ground truth — live processes and the frames pinned by System V
     * segments — so the invariant oracle can recompute frame and
     * swap-slot accounting from first principles.  The check hook
     * (nullable) runs at the end of every dispatch(): the syscall
     * boundary, where the system is quiescent and global invariants
     * must hold.
     */
    /// @{
    template <typename Fn>
    void
    forEachProcess(Fn &&fn) const
    {
        for (const auto &[pid, p] : procs)
            fn(std::as_const(*p));
    }
    void forEachShmFrame(
        const std::function<void(const FrameRef &)> &fn) const;
    using CheckHook = std::function<void(Process &proc, u64 code)>;
    void setCheckHook(CheckHook hook) { checkHook = std::move(hook); }
    /// @}

  private:
    /** Checkpoint/restore reaches every private table. */
    friend struct snap::Access;

    struct ShmSegment
    {
        u64 size = 0;
        std::vector<FrameRef> frames;
    };

    /** Validate a user pointer for an access of @p len bytes requiring
     *  @p perms; returns errno. */
    int checkUserPtr(Process &proc, const UserPtr &ptr, u64 len,
                     u32 perms);

    /** @name Memory-pressure machinery
     * reclaim is PhysMem's MemEvents::reclaim: evict LRU pages across
     * all processes; if that cannot free @p wanted frames (swap full or
     * nothing evictable), OOM-kill the largest process other than the
     * requester's.  Returns frames freed.
     */
    /// @{
    u64 reclaim(u64 wanted, const void *requester) override;
    void oomKill(Process &victim);
    /** Count a pressure-induced E_NOMEM and return it as a SysResult. */
    SysResult failNoMem();
    /// @}

    /** @name Process birth: a new principal's address space (spawn,
     *  execve); a table entry with its TLB counters wired (spawn, fork). */
    /// @{
    std::unique_ptr<AddressSpace> freshAddressSpace(u64 pid);
    Process *addProcess(u64 pid, u64 ppid, Abi abi, const std::string &name,
                        std::unique_ptr<AddressSpace> as);
    void bindTlbCounters(Process &proc);
    /// @}

    /** The one teardown every death runs (DESIGN.md, "Process
     *  lifecycle"): record @p death or @p status, abort the revocation
     *  epoch, close the fds, write a core file when @p core, release
     *  memory and swap, SIG_CHLD, scheduler.  No-op once ended. */
    void endProcess(Process &proc, const std::optional<DeathInfo> &death,
                    int status = 0, bool core = false);

    /** Charge @p n_ptr_args syscall overhead to the process. */
    void chargeSyscall(Process &proc, u64 n_ptr_args);

    /** @name Structured-panic machinery (os/panic.cc call sites)
     * onKassert is the panic::Sink entry: capture, then unwind.
     * dispatchInner is the whole historical dispatch body; dispatch()
     * wraps it in the catch-site that absorbs panics on host-driven
     * (scheduler-idle) paths.
     */
    /// @{
    [[noreturn]] void onKassert(const panic::KassertInfo &info) override;
    SysResult dispatchInner(Process &proc, u64 code);
    std::string buildPanicReport(const panic::KassertInfo &info) const;
    /** MemEvents from PhysMem/SwapDevice and the injector: count a
     *  detected corruption as a machine check, and feed the flight
     *  recorder (a fired decision first, then its machine check). */
    void machineCheck(FaultPoint point, u64 addr) override;
    void faultFired(FaultPoint point) override;
    /** (Re)build the default VFS tree (constructor and panicReset). */
    void initVfs();
    /// @}

    /** @name Revocation epoch machinery (os/revocation.cc)
     * openEpoch validates the range set and builds the worklist;
     * runRevocationSlice scans up to @p max_pages from it (absorbing
     * re-dirtied pages) and closes the epoch when the worklist drains —
     * closing is where kernel-held roots are swept (forEachRootCap).
     * driveEpochToClose loops slices for the SYNC path; pumpRevocation
     * is the per-dispatch incremental tick;
     * abortRevocationEpoch tears down an open epoch when its process's
     * address space is about to vanish (exit, execve, OOM kill).
     */
    /// @{
    SysResult openEpoch(Process &proc,
                        std::vector<std::pair<u64, u64>> ranges,
                        u32 flags);
    /** Pages scanned this slice (0 = no progress; worklist may still
     *  be nonempty on persistent device failure). */
    u64 runRevocationSlice(Process &proc, RevocationEpoch &ep,
                           u64 max_pages);
    void closeRevocationEpoch(Process &proc, RevocationEpoch &ep);
    SysResult driveEpochToClose(Process &proc, RevocationEpoch &ep);
    void pumpRevocation(Process &proc);
    void abortRevocationEpoch(Process &proc);
    /// @}

    void setupStack(Process &proc, const std::vector<std::string> &argv,
                    const std::vector<std::string> &envv);
    /** Spill/restore the register file to/from a signal frame on the
     *  user stack.  Fallible: the stack page's swap-in or demand-zero
     *  frame allocation can fail under pressure, in which case the
     *  process takes a counted guest fault (never a host abort) and
     *  these return false with the process dead. */
    bool pushSigFrame(Process &proc, SigFrame &frame);
    bool popSigFrame(Process &proc, const SigFrame &frame);

    KernelConfig cfg;
    PhysMem phys;
    SwapDevice swap;
    FaultInjector injector;
    /** Shared with every Metrics registry this kernel was attached
     *  to, so either side may be destroyed first. */
    std::shared_ptr<KernelCounters> stats =
        std::make_shared<KernelCounters>();
    panic::FlightRecorder recorder;
    /** Attribution for panic reports: the (pid, code) of the dispatch
     *  in flight (code ~0 = none). */
    u64 lastDispatchPid = 0;
    u64 lastDispatchCode = ~u64{0};
    /** Nonzero: dispatchInner fails a planted kassert when the counter
     *  reaches zero (test seam; see plantPanicAtDispatch). */
    u64 panicPlant = 0;
    /** A panic capture is running: re-entrant kasserts (a corrupted
     *  kernel failing again under the snapshot walk) skip capture and
     *  unwind immediately. */
    bool panicInProgress = false;
    bool lastPanicValid = false;
    std::string lastPanicReport;
    std::vector<u8> lastPanicImage;
    std::function<std::vector<u8>(Kernel &)> panicSnapHook;
    Vfs fs;
    Rtld linker;
    TraceSink *traceSink = nullptr;
    obs::Metrics *mx = nullptr;
    CheckHook checkHook;
    std::map<u64, std::unique_ptr<Process>> procs;
    std::map<int, ShmSegment> shmSegments;
    std::map<u64, std::vector<KEvent>> kqueues; // by pid
    std::vector<std::pair<u64, u64>> attached; // (debugger, target)
    std::map<u64, RevocationEpoch> revEpochs; // by pid
    /** Kernel-global epoch id allocator (ids never reused). */
    u64 nextEpochId = 0;
    /** Quiescent-point clock (see quiescentCount()). */
    u64 quiescentSeq = 0;
    u64 nextPid = 1;
    u64 nextPrincipal = 1;
    u64 nextOtype = 1; // otype 0 reserved
    int nextShmId = 1;
    u64 switches = 0;
    /** Per-pid counting-event state (sysEvPost/sysEvWait). */
    std::map<u64, u64> eventCounts;
    /** Declared after procs: the scheduler (whose contexts reference
     *  Process objects) is destroyed before the process table. */
    std::unique_ptr<sched::Scheduler> sch;
    /**
     * False only while a snapshot restore is rebuilding kernel state.
     * fireFdEdge consults it: teardown paths (closeAllFds) run during
     * restore-abort, and their wake edges must not reach a half-built
     * scheduler or perturb restored wake accounting.
     */
    bool kernelReady = true;
};

template <typename P, typename Fn>
void
Kernel::forEachRootCap(P &proc, Fn &&fn)
{
    auto regFile = [&](const char *kind, u64 index, auto &regs) {
        fn(RootSite{kind, index, RootSite::Pcc}, regs.pcc);
        fn(RootSite{kind, index, RootSite::Ddc}, regs.ddc);
        for (unsigned i = 0; i < numCapRegs; ++i)
            fn(RootSite{kind, index, static_cast<int>(i)}, regs.c[i]);
    };
    regFile("regs", RootSite::noIndex, proc.regs());
    using Thread = std::conditional_t<std::is_const_v<P>,
                                      const ThreadRecord, ThreadRecord>;
    proc.forEachThread([&](Thread &t) {
        regFile("tid", t.tid, t.saved);
        fn(RootSite{"tid", t.tid, RootSite::Stack}, t.stackCap);
    });
    for (u64 i = 0; i < proc.liveSigFrames.size(); ++i)
        regFile("sigframe", i, proc.liveSigFrames[i]->saved);
    fn(RootSite{"stackCap"}, proc.stackCap);
    fn(RootSite{"argvCap"}, proc.argvCap);
    fn(RootSite{"envvCap"}, proc.envvCap);
    fn(RootSite{"auxvCap"}, proc.auxvCap);
    fn(RootSite{"trampolineCap"}, proc.trampolineCap);
    auto kq = kqueues.find(proc.pid());
    if (kq == kqueues.end())
        return;
    for (u64 i = 0; i < kq->second.size(); ++i)
        fn(RootSite{"kevent-udata", i}, kq->second[i].udata);
}

/** Map PROT_* bits to the capability permissions mmap grants. */
u32 protToPerms(u32 prot);

} // namespace cheri

#endif // CHERI_OS_KERNEL_H
