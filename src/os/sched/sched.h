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
#include "os/sched_iface.h"

namespace cheri::snap
{
struct Access;
}

namespace cheri::sched
{

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

class Scheduler final : public SchedulerIface
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

    /** @name SchedulerIface */
    /// @{
    bool blockCurrent(Process &proc, BlockKind kind, u64 arg,
                      bool restart) override;
    void onProcessDead(Process &proc) override;
    void onProcessReaped(u64 pid) override;
    void onFork(Process &child) override;
    void onThreadNew(Process &proc, u64 tid) override;
    bool onThreadSwitch(Process &proc, u64 tid) override;
    void onThreadExit(Process &proc, u64 tid) override;
    void onEventPost(u64 pid) override;
    bool blockCurrentFd(Process &proc, const FdWait &wait) override;
    u64 onFdWake(u64 chan) override;
    bool consumeFdTimeout(Process &proc) override;
    void clearFdDeadline(Process &proc) override;
    void runUntilIdle() override;
    bool active() const override { return running; }
    void resetForPanic() override;
    /// @}

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

/**
 * The kernel's scheduler as a concrete sched::Scheduler, installing
 * one if none exists yet.  All drivers funnel through this.
 */
Scheduler &schedulerFor(Kernel &kern);

} // namespace cheri::sched

#endif // CHERI_OS_SCHED_SCHED_H
