/**
 * @file
 * The kernel-side scheduler interface.
 *
 * The concrete scheduler (src/os/sched) owns interpreters and therefore
 * lives above the ISA layer, which the core kernel library must not
 * link against (cheri_isa itself links cheri_os).  This header is the
 * seam: an abstract interface the kernel calls at its blocking and
 * lifecycle edges — wait4 wanting to sleep, a process dying, a fork or
 * thr_new needing admission.  The scheduler's counters live with the
 * kernel's own (os/counters.h, Kernel::schedStats).
 *
 * Everything here is optional: a kernel with no scheduler installed
 * (schedIface == nullptr) behaves exactly as before — wait4 polls,
 * thr_switch switches immediately, fork children never run.
 */

#ifndef CHERI_OS_SCHED_IFACE_H
#define CHERI_OS_SCHED_IFACE_H

#include <vector>

#include "cap/types.h"

namespace cheri
{

class Process;

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
 * The edges the kernel raises into the scheduler.  All admission
 * callbacks are conditional: the scheduler only admits work spawned
 * *by interpreted guests it is currently running* — host-driven tests
 * calling sysThrNew/fork directly see no behavior change.
 */
class SchedulerIface
{
  public:
    virtual ~SchedulerIface() = default;

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
    virtual bool blockCurrent(Process &proc, BlockKind kind, u64 arg,
                              bool restart) = 0;

    /** @p proc ended: retire its contexts, wake Wait4 waiters.  Called
     *  exactly once per process, from Kernel::endProcess. */
    virtual void onProcessDead(Process &proc) = 0;
    /** @p pid was reaped by wait4: its Process object is gone. */
    virtual void onProcessReaped(u64 pid) = 0;
    /** A running interpreted guest forked @p child: admit it. */
    virtual void onFork(Process &child) = 0;
    /** A running interpreted guest created thread @p tid: admit it. */
    virtual void onThreadNew(Process &proc, u64 tid) = 0;
    /**
     * thr_switch from a running interpreted guest: a *directed yield*
     * (the scheduler owns register-file switching and performs it at
     * the slice boundary).  Returns false when not handled — the
     * caller performs the legacy immediate switch.
     */
    virtual bool onThreadSwitch(Process &proc, u64 tid) = 0;
    /** Thread @p tid self-exited (zombie until the next pick). */
    virtual void onThreadExit(Process &proc, u64 tid) = 0;
    /** An event was posted to @p pid: wake its EventWait contexts. */
    virtual void onEventPost(u64 pid) = 0;

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
    virtual bool blockCurrentFd(Process &proc, const FdWait &wait) = 0;
    /** Wait-channel @p chan fired (data, space, or close): wake every
     *  context parked on it.  Returns how many were woken. */
    virtual u64 onFdWake(u64 chan) = 0;
    /**
     * True exactly once after @p proc's context was woken by its FD
     * deadline expiring (clears the armed deadline): the restarted
     * select distinguishes "timed out" from "woken by readiness".
     */
    virtual bool consumeFdTimeout(Process &proc) = 0;
    /** Disarm any FD deadline on @p proc's context — called on every
     *  non-blocking select return so stale deadlines cannot leak into
     *  a later park. */
    virtual void clearFdDeadline(Process &proc) = 0;
    /// @}

    /** Drain the run queue (see Kernel::runUntilIdle). */
    virtual void runUntilIdle() = 0;

    /** True while a drain is in progress (a slice is on the stack).
     *  dispatch() consults this to decide whether a kernel panic must
     *  propagate up to the scheduler's catch site or can be absorbed
     *  locally. */
    virtual bool active() const { return false; }

    /**
     * Kernel-panic teardown: retire every context and clear the queues
     * WITHOUT destroying the scheduler object itself — panicReset()
     * runs underneath the scheduler's own drain loop, so the object
     * must survive the call and come back empty.
     */
    virtual void resetForPanic() {}
};

} // namespace cheri

#endif // CHERI_OS_SCHED_IFACE_H
