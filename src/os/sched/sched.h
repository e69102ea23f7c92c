/**
 * @file
 * The kernel scheduler and unified execution engine.
 *
 * Every driver — runGuest, the diff fuzzer, the benches, the app
 * workloads — executes guest code through here instead of hand-rolling
 * an interpreter loop.  Two kinds of context run on the same queue:
 *
 *  - *interpreted* contexts own an isa::Interpreter per (pid, tid):
 *    the decode micro-cache and step accounting live in the
 *    ExecContext and survive across dispatches and context switches
 *    (a warm cache is the engine's main throughput win, see
 *    bench/sched_bench);
 *  - *hosted* contexts wrap a std::function driving syscalls from the
 *    host (runGuest bodies, workloads).  They run to completion in one
 *    slice — host code cannot be preempted at an instruction boundary.
 *
 * Preemption is a time-slice step budget (KernelConfig::timeSliceSteps)
 * raised as an interpreter Preempted result, so it only ever lands
 * between instructions.  Blocking syscalls (wait4, ev_wait, sleep) park
 * their context off the queue; wake-up edges come from the kernel's
 * process teardown (every death, not only exit), ev_post, and the
 * virtual clock (total guest instructions retired).
 * Slice boundaries run the kernel's background work (revocation pump,
 * frame reclaim) and an optional hook the fuzzer points at the
 * invariant oracle.
 */

#ifndef CHERI_OS_SCHED_SCHED_H
#define CHERI_OS_SCHED_SCHED_H

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "isa/interp.h"
#include "os/kernel.h"

namespace cheri::snap
{
struct Access;
}

namespace cheri::sched
{

/** Why a context is off the run queue. */
enum class BlockKind
{
    None,
    /** wait4(2) with live children and no zombie yet. */
    Wait4,
    /** ev_wait(2) with a zero event counter. */
    EventWait,
    /** sleep(2) until a virtual-clock deadline. */
    Sleep,
    /** read/write/select on a file descriptor that would block. */
    Fd,
};

/**
 * What an FD-blocked context waits for: any of a set of wait-channel
 * ids (see ByteChannel::readWait/writeWait — one token per channel
 * edge), plus an optional virtual-clock deadline (select timeouts).
 * A blocking read or write passes exactly one id and no deadline;
 * select passes the ids of every not-ready fd it polled plus the
 * copied-in timeout.
 */
struct FdWait
{
    std::vector<u64> chans;
    bool hasDeadline = false;
    /** Virtual-clock ticks from now (when hasDeadline). */
    u64 deadlineTicks = 0;
};

/**
 * Per-(process, thread) execution state.  Owns the interpreter — and
 * with it the decode cache and retired-step counter — for the life of
 * the thread, however many slices it takes.
 */
struct ExecContext
{
    enum class State
    {
        Runnable,
        Running,
        Blocked,
        Done,
    };

    u64 pid = 0;
    u64 tid = 0;
    State state = State::Done;
    BlockKind blockKind = BlockKind::None;
    /** Wait4: pid filter.  Sleep: absolute virtual-clock deadline.
     *  EventWait: the pid whose counter is awaited. */
    u64 blockArg = 0;
    /** Rewind PC one instruction on wake so the syscall re-executes. */
    bool restartOnWake = false;

    /** @name FD-block state (BlockKind::Fd)
     * The wait-channel ids this context is parked on, and the select
     * deadline machinery.  The deadline survives wake/restart cycles
     * (a restarted select must not re-arm its timeout) and is cleared
     * only by consumeFdTimeout or clearFdDeadline.
     */
    /// @{
    std::vector<u64> fdChans;
    /** A select deadline is armed (absolute vclock in fdDeadline). */
    bool fdDeadlineArmed = false;
    u64 fdDeadline = 0;
    /** The armed deadline expired; consumed by the restarted select. */
    bool fdTimedOut = false;
    /// @}

    /** Null for hosted contexts. */
    std::unique_ptr<isa::Interpreter> interp;
    std::function<void()> hostFn;
    bool isHost() const { return interp == nullptr; }

    /** Result of the most recent slice (drivers read status/fault). */
    isa::InterpResult last;
    /** Retire at most this many steps per ready() (0 = unlimited);
     *  expiry reports Status::StepLimit, like Interpreter::run. */
    u64 stepLimit = 0;
    u64 readyBaseSteps = 0;
    u64 slices = 0;

    /** Instructions retired by this context's interpreter, lifetime. */
    u64
    retired() const
    {
        return interp ? interp->retired() : 0;
    }
};

/**
 * The kernel's scheduler: every Kernel constructs one and owns it for
 * its whole life (Kernel::scheduler()).  The kernel calls it at its
 * blocking and lifecycle edges — wait4 wanting to sleep, a process
 * dying, a fork or thr_new needing admission.  Its counters live with
 * the kernel's own (os/counters.h, Kernel::schedStats).
 *
 * The edges act only on contexts the scheduler holds: admission
 * callbacks admit only what an interpreted guest it is currently
 * running spawned, and the blocking calls park only that guest.  So
 * on a kernel that never runs guest code, host-driven syscalls see the
 * non-blocking behavior — wait4 polls, thr_switch switches at once,
 * sleep returns, ev_wait reports E_BUSY, fork children never run.
 */
class Scheduler
{
  public:
    explicit Scheduler(Kernel &kern) : kern(kern), st(kern.schedStats())
    {
    }

    /**
     * Get-or-create the persistent context for @p proc's thread
     * @p tid (default: the current thread).  A fresh context gets an
     * interpreter whose syscalls enter Kernel::dispatch.
     */
    ExecContext &context(Process &proc);
    ExecContext &context(Process &proc, u64 tid);

    /** Move @p ctx to the back of the run queue (restarting its
     *  per-ready step-limit window). */
    void ready(ExecContext &ctx);

    /** Shorthand: context() + ready(), optionally step-limited. */
    ExecContext &admit(Process &proc, u64 step_limit = 0);

    /**
     * Run @p fn as a hosted context of @p proc.  When called while the
     * scheduler is already draining (a hosted body spawning another),
     * the function runs synchronously as a nested slice.
     */
    void runHosted(Process &proc, std::function<void()> fn);

    /** Called after every slice with the process that just ran — the
     *  fuzzer points this at the invariant oracle. */
    void setSliceHook(std::function<void(Process &)> hook)
    {
        sliceHook = std::move(hook);
    }

    /** The virtual clock: guest instructions retired under the
     *  scheduler, plus idle advances to sleep deadlines. */
    u64 now() const { return vclock; }

    /** @name Kernel edges */
    /// @{
    /**
     * Block the context currently executing @p proc.  @p arg is
     * interpreted per kind (Wait4: pid filter; Sleep: ticks from now;
     * EventWait: the pid whose counter is awaited).  @p restart asks
     * the scheduler to rewind PC by one instruction so the syscall
     * re-executes on wake (wait4/ev_wait re-check their predicate);
     * sleep completes on wake and must not restart.
     *
     * Returns false when there is nothing to block — no interpreted
     * context is running @p proc — in which case the caller must fall
     * back to its non-blocking behavior.
     */
    bool blockCurrent(Process &proc, BlockKind kind, u64 arg,
                      bool restart);
    /** @p proc ended: retire its contexts, wake Wait4 waiters.  Called
     *  exactly once per process, from Kernel::endProcess. */
    void onProcessDead(Process &proc);
    /** @p pid was reaped by wait4: its Process object is gone. */
    void onProcessReaped(u64 pid);
    /** A running interpreted guest forked @p child: admit it. */
    void onFork(Process &child);
    /** A running interpreted guest created thread @p tid: admit it. */
    void onThreadNew(Process &proc, u64 tid);
    /**
     * thr_switch from a running interpreted guest: a *directed yield*
     * (the scheduler owns register-file switching and performs it at
     * the slice boundary).  Returns false when not handled — the
     * caller performs the immediate switch.
     */
    bool onThreadSwitch(Process &proc, u64 tid);
    /** Thread @p tid exited (a self-exit is a zombie until the next
     *  pick). */
    void onThreadExit(Process &proc, u64 tid);
    /** An event was posted to @p pid: wake its EventWait contexts. */
    void onEventPost(u64 pid);
    /// @}

    /** @name FD blocking (BlockKind::Fd)
     * FD parks always restart (PC rewound one instruction) so the
     * woken syscall re-runs its readiness check from scratch — the
     * wake is a hint, not a guarantee (another context may have
     * drained the channel first).
     */
    /// @{
    /**
     * Park the context currently executing @p proc until one of
     * @p wait's channel edges fires or its deadline passes.  A
     * deadline is armed once per park/restart cycle: re-blocking
     * while a deadline is already armed keeps the *original* one, so
     * a restarted select does not push its timeout into the future.
     * Returns false when no interpreted context is running @p proc
     * (caller falls back to non-blocking behavior).
     */
    bool blockCurrentFd(Process &proc, const FdWait &wait);
    /** Wait-channel @p chan fired (data, space, or close): wake every
     *  context parked on it.  Returns how many were woken. */
    u64 onFdWake(u64 chan);
    /**
     * True exactly once after @p proc's context was woken by its FD
     * deadline expiring (clears the armed deadline): the restarted
     * select distinguishes "timed out" from "woken by readiness".
     */
    bool consumeFdTimeout(Process &proc);
    /** Disarm any FD deadline on @p proc's context — called on every
     *  non-blocking select return so stale deadlines cannot leak into
     *  a later park. */
    void clearFdDeadline(Process &proc);
    /// @}

    /** Drain the run queue (see Kernel::runUntilIdle).  A kernel panic
     *  unwinding out of a slice is absorbed here (panicReset). */
    void runUntilIdle();

    /** True while a drain is in progress (a slice is on the stack).
     *  dispatch() consults this to decide whether a kernel panic must
     *  propagate up to the scheduler's catch site or can be absorbed
     *  locally. */
    bool active() const { return running; }

    /**
     * Kernel-panic teardown: retire every context and clear the queues
     * WITHOUT destroying the scheduler object itself — panicReset()
     * runs underneath the scheduler's own drain loop, so the object
     * must survive the call and come back empty.
     */
    void resetForPanic();

    /** True when the scheduler holds state: a context, a non-zero
     *  virtual clock or non-zero counters.  A snapshot records the
     *  scheduler only then. */
    bool holdsState() const;

    const SchedStats &stats() const { return st; }

  private:
    /** Checkpoint/restore rebuilds contexts and queues directly. */
    friend struct snap::Access;

    /** The interpreted context currently in a slice (nullptr for a
     *  hosted slice or outside runUntilIdle). */
    ExecContext *interpretedCurrent() const;
    void wake(ExecContext &ctx);
    void retireContextsOf(u64 pid);
    u64 sliceBudget(const ExecContext &ctx) const;
    void runOneSlice(ExecContext &ctx, Process &proc);
    /** The drain loop proper; runUntilIdle wraps it in the kernel-panic
     *  catch site. */
    void drainLoop();
    /**
     * Deadlock watchdog, run when the drain goes idle with only
     * deadline-less blocked contexts left.  Builds the wait-for
     * relation (pipe/pty FD edges via Kernel::fdWakerPids, wait4
     * parent->child, ev_wait posters), removes every context a capable
     * peer could still wake, and classifies what survives as a true
     * cycle or orphaned wait.  Under DeadlockPolicy::Kill a
     * deterministically chosen victim dies (decision routed through
     * the FaultPoint::DeadlockKill replay tap); returns true iff a
     * kill freed the drain to continue.
     */
    bool watchdogScan();

    Kernel &kern;
    std::map<std::pair<u64, u64>, std::unique_ptr<ExecContext>> ctxs;
    /** One-shot hosted contexts (owned here, not in `ctxs`). */
    std::vector<std::unique_ptr<ExecContext>> hosted;
    std::deque<ExecContext *> runq;
    std::vector<ExecContext *> blocked;
    ExecContext *current = nullptr;
    /** The (pid, tid) of the previous slice, for switch counting. */
    ExecContext *lastRan = nullptr;
    bool running = false;
    u64 vclock = 0;
    /** The kernel's scheduler counters (os/counters.h). */
    SchedStats &st;
    std::function<void(Process &)> sliceHook;
};

/** The scheduler @p kern owns.  All drivers funnel through this. */
inline Scheduler &
schedulerFor(Kernel &kern)
{
    return kern.scheduler();
}

} // namespace cheri::sched

#endif // CHERI_OS_SCHED_SCHED_H
