/**
 * @file
 * Scheduler implementation: run queue, time slices, blocking states,
 * and the wake-up edges (see sched.h for the model).
 *
 * Two invariants the rest of the system depends on:
 *
 *  1. Preemption only at instruction boundaries.  A slice ends by
 *     interpreter step-budget expiry or an in-dispatch requestYield(),
 *     both of which let the in-flight instruction finish — including
 *     its PC writeback — before the scheduler touches the register
 *     file.  Register files therefore always switch between whole
 *     instructions, and the invariant oracle can treat every slice
 *     boundary as a quiescent point.
 *
 *  2. Syscall restart by PC rewind.  A blocking syscall (wait4,
 *     ev_wait) returns E_INTR into the register file and the scheduler
 *     rewinds PCC by one instruction before parking the context, so the
 *     wake re-executes the syscall and the E_INTR is overwritten by the
 *     real result.  sleep() blocks with restart=false: its success
 *     registers are already written and re-running it would re-arm the
 *     deadline forever.
 */

#include "os/sched/sched.h"

#include "obs/metrics.h"

#include <algorithm>

namespace cheri::sched
{

namespace
{

void
erasePtr(std::vector<ExecContext *> &v, const ExecContext *ctx)
{
    v.erase(std::remove(v.begin(), v.end(), ctx), v.end());
}

void
erasePtr(std::deque<ExecContext *> &q, const ExecContext *ctx)
{
    q.erase(std::remove(q.begin(), q.end(), ctx), q.end());
}

} // namespace

ExecContext &
Scheduler::context(Process &proc)
{
    return context(proc, proc.currentTid());
}

ExecContext &
Scheduler::context(Process &proc, u64 tid)
{
    auto key = std::make_pair(proc.pid(), tid);
    auto it = ctxs.find(key);
    if (it != ctxs.end())
        return *it->second;
    auto ctx = std::make_unique<ExecContext>();
    ctx->pid = proc.pid();
    ctx->tid = tid;
    ctx->interp =
        std::make_unique<isa::Interpreter>(proc, kern.trace());
    isa::installDefaultSyscallHook(*ctx->interp, kern);
    ExecContext &ref = *ctx;
    ctxs.emplace(key, std::move(ctx));
    return ref;
}

void
Scheduler::ready(ExecContext &ctx)
{
    ctx.readyBaseSteps = ctx.retired();
    ctx.blockKind = BlockKind::None;
    if (ctx.state == ExecContext::State::Runnable &&
        std::find(runq.begin(), runq.end(), &ctx) != runq.end())
        return;
    ctx.state = ExecContext::State::Runnable;
    runq.push_back(&ctx);
}

ExecContext &
Scheduler::admit(Process &proc, u64 step_limit)
{
    ExecContext &ctx = context(proc);
    ctx.stepLimit = step_limit;
    ready(ctx);
    return ctx;
}

void
Scheduler::runHosted(Process &proc, std::function<void()> fn)
{
    if (running) {
        // A hosted body spawned another hosted body: run it inline as
        // a nested slice rather than deadlocking on the outer drain.
        ++st.slices;
        fn();
        return;
    }
    auto ctx = std::make_unique<ExecContext>();
    ctx->pid = proc.pid();
    ctx->tid = proc.currentTid();
    ctx->hostFn = std::move(fn);
    ctx->state = ExecContext::State::Runnable;
    runq.push_back(ctx.get());
    hosted.push_back(std::move(ctx));
    runUntilIdle();
}

ExecContext *
Scheduler::interpretedCurrent() const
{
    return (current && !current->isHost()) ? current : nullptr;
}

bool
Scheduler::blockCurrent(Process &proc, BlockKind kind, u64 arg,
                        bool restart)
{
    ExecContext *cur = interpretedCurrent();
    if (!cur || cur->pid != proc.pid())
        return false;
    cur->state = ExecContext::State::Blocked;
    cur->blockKind = kind;
    cur->blockArg = kind == BlockKind::Sleep ? vclock + arg : arg;
    cur->restartOnWake = restart;
    cur->interp->requestYield();
    switch (kind) {
      case BlockKind::Wait4:
        ++st.blocksWait4;
        break;
      case BlockKind::EventWait:
        ++st.blocksEvent;
        break;
      case BlockKind::Sleep:
        ++st.blocksSleep;
        break;
      case BlockKind::Fd:
        // FD parks go through blockCurrentFd (they carry a channel
        // set, not a scalar arg); count defensively anyway.
        ++st.blocksFd;
        break;
      case BlockKind::None:
        break;
    }
    kern.flightRecorder().record(panic::EventKind::SchedBlock, cur->pid,
                                 cur->tid, static_cast<u64>(kind));
    return true;
}

bool
Scheduler::blockCurrentFd(Process &proc, const FdWait &wait)
{
    ExecContext *cur = interpretedCurrent();
    if (!cur || cur->pid != proc.pid())
        return false;
    cur->state = ExecContext::State::Blocked;
    cur->blockKind = BlockKind::Fd;
    cur->restartOnWake = true; // wakes are hints: re-run the syscall
    cur->fdChans = wait.chans;
    if (wait.hasDeadline) {
        // Arm once per park/restart cycle: a select woken by readiness
        // that re-blocks (spurious wake, another consumer won the
        // race) keeps its original deadline instead of sliding it.
        if (!cur->fdDeadlineArmed) {
            cur->fdDeadlineArmed = true;
            cur->fdDeadline = vclock + wait.deadlineTicks;
        }
    }
    cur->interp->requestYield();
    ++st.blocksFd;
    kern.flightRecorder().record(panic::EventKind::SchedBlock, cur->pid,
                                 cur->tid,
                                 static_cast<u64>(BlockKind::Fd));
    return true;
}

u64
Scheduler::onFdWake(u64 chan)
{
    std::vector<ExecContext *> to_wake;
    for (ExecContext *b : blocked) {
        if (b->blockKind != BlockKind::Fd)
            continue;
        if (std::find(b->fdChans.begin(), b->fdChans.end(), chan) !=
            b->fdChans.end())
            to_wake.push_back(b);
    }
    for (ExecContext *b : to_wake)
        wake(*b);
    return to_wake.size();
}

bool
Scheduler::consumeFdTimeout(Process &proc)
{
    ExecContext *cur = interpretedCurrent();
    if (!cur || cur->pid != proc.pid() || !cur->fdTimedOut)
        return false;
    cur->fdTimedOut = false;
    cur->fdDeadlineArmed = false;
    return true;
}

void
Scheduler::clearFdDeadline(Process &proc)
{
    ExecContext *cur = interpretedCurrent();
    if (!cur || cur->pid != proc.pid())
        return;
    cur->fdDeadlineArmed = false;
    cur->fdTimedOut = false;
}

void
Scheduler::wake(ExecContext &ctx)
{
    if (ctx.state != ExecContext::State::Blocked)
        return;
    kern.flightRecorder().record(panic::EventKind::SchedWake, ctx.pid,
                                 ctx.tid,
                                 static_cast<u64>(ctx.blockKind));
    erasePtr(blocked, &ctx);
    ctx.state = ExecContext::State::Runnable;
    ctx.blockKind = BlockKind::None;
    runq.push_back(&ctx);
    ++st.wakes;
}

void
Scheduler::retireContextsOf(u64 pid)
{
    for (auto &[key, ctx] : ctxs) {
        if (key.first != pid)
            continue;
        if (ctx->state == ExecContext::State::Blocked)
            erasePtr(blocked, ctx.get());
        ctx->state = ExecContext::State::Done;
        if (ctx.get() == current && !ctx->isHost())
            ctx->interp->requestYield();
    }
}

void
Scheduler::onProcessDead(Process &proc)
{
    retireContextsOf(proc.pid());
    // Wake any parent blocked in wait4 on this child.
    u64 parent = proc.ppid();
    std::vector<ExecContext *> to_wake;
    for (ExecContext *b : blocked) {
        if (b->blockKind == BlockKind::Wait4 && b->pid == parent &&
            (b->blockArg == 0 || b->blockArg == proc.pid()))
            to_wake.push_back(b);
    }
    for (ExecContext *b : to_wake)
        wake(*b);
}

void
Scheduler::onProcessReaped(u64 pid)
{
    // The Process object is about to be erased: drop every context
    // that references it.
    for (auto it = ctxs.begin(); it != ctxs.end();) {
        if (it->first.first != pid) {
            ++it;
            continue;
        }
        ExecContext *ctx = it->second.get();
        erasePtr(runq, ctx);
        erasePtr(blocked, ctx);
        if (lastRan == ctx)
            lastRan = nullptr;
        it = ctxs.erase(it);
    }
}

void
Scheduler::onFork(Process &child)
{
    ExecContext *cur = interpretedCurrent();
    if (!cur)
        return;
    // The child's register file was copied before the parent's
    // syscall-step PC writeback: advance past the fork instruction and
    // install fork's child-side return value (0, no error) so the
    // child does not re-execute the fork.
    ThreadRegs &r = child.regs();
    r.pcc = r.pcc.setAddress(r.pcc.address() + isa::insnSize);
    r.x[regSysErr] = 0;
    r.x[regRetVal] = 0;
    ExecContext &ctx = context(child);
    ctx.stepLimit = cur->stepLimit;
    ready(ctx);
}

void
Scheduler::onThreadNew(Process &proc, u64 tid)
{
    ExecContext *cur = interpretedCurrent();
    if (!cur || cur->pid != proc.pid())
        return;
    // Same pre-writeback fixup as fork, applied to the new thread's
    // saved register file: it resumes past the thr_new instruction
    // with a 0 return value (the creator sees the tid instead).
    ThreadRecord *rec = proc.threadById(tid);
    if (!rec)
        return;
    rec->saved.pcc =
        rec->saved.pcc.setAddress(rec->saved.pcc.address() +
                                  isa::insnSize);
    rec->saved.x[regSysErr] = 0;
    rec->saved.x[regRetVal] = 0;
    ExecContext &ctx = context(proc, tid);
    ctx.stepLimit = cur->stepLimit;
    ready(ctx);
}

bool
Scheduler::onThreadSwitch(Process &proc, u64 tid)
{
    ExecContext *cur = interpretedCurrent();
    if (!cur || cur->pid != proc.pid())
        return false;
    if (tid == cur->tid)
        return true;
    auto it = ctxs.find(std::make_pair(proc.pid(), tid));
    if (it == ctxs.end())
        return false;
    ExecContext &target = *it->second;
    if (target.state == ExecContext::State::Runnable) {
        // Directed yield: the target runs next, the caller requeues.
        erasePtr(runq, &target);
        runq.push_front(&target);
    }
    cur->interp->requestYield();
    return true;
}

void
Scheduler::onThreadExit(Process &proc, u64 tid)
{
    auto it = ctxs.find(std::make_pair(proc.pid(), tid));
    if (it == ctxs.end())
        return;
    ExecContext &ctx = *it->second;
    if (ctx.state == ExecContext::State::Blocked)
        erasePtr(blocked, &ctx);
    ctx.state = ExecContext::State::Done;
    if (&ctx == current && !ctx.isHost())
        ctx.interp->requestYield();
}

void
Scheduler::onEventPost(u64 pid)
{
    // Wake every waiter: each restarts ev_wait and re-blocks if it
    // loses the race for the counter.
    std::vector<ExecContext *> to_wake;
    for (ExecContext *b : blocked) {
        if (b->blockKind == BlockKind::EventWait && b->blockArg == pid)
            to_wake.push_back(b);
    }
    for (ExecContext *b : to_wake)
        wake(*b);
}

u64
Scheduler::sliceBudget(const ExecContext &ctx) const
{
    u64 slice = kern.config().timeSliceSteps;
    if (slice == 0)
        slice = ~u64{0} >> 1; // 0 = never preempt
    if (ctx.stepLimit) {
        u64 used = ctx.retired() - ctx.readyBaseSteps;
        u64 rem = ctx.stepLimit > used ? ctx.stepLimit - used : 0;
        return std::min(slice, rem);
    }
    return slice;
}

void
Scheduler::runOneSlice(ExecContext &ctx, Process &proc)
{
    if (lastRan && lastRan != &ctx) {
        ++st.contextSwitches;
        // Cross-process switches charge the cost model; same-process
        // thread switches are charged by switchThreadContext below.
        if (lastRan->pid != ctx.pid)
            kern.contextSwitchTo(proc);
    }
    if (!ctx.isHost() && proc.currentTid() != ctx.tid) {
        if (kern.switchThreadContext(proc, ctx.tid) != E_OK) {
            ctx.state = ExecContext::State::Done;
            return;
        }
    }
    current = &ctx;
    ctx.state = ExecContext::State::Running;
    if (ctx.isHost()) {
        // Hosted contexts run to completion: host code has no
        // instruction boundaries to preempt at.
        std::function<void()> fn = std::move(ctx.hostFn);
        ctx.hostFn = nullptr;
        if (fn)
            fn();
        if (ctx.state == ExecContext::State::Running)
            ctx.state = ExecContext::State::Done;
        ++st.slices;
        ++ctx.slices;
    } else {
        // The metrics registry may have been attached after this
        // context's interpreter was created: re-wire it each slice.
        obs::Metrics *mx = kern.metrics();
        ctx.interp->setMetrics(mx);
        u64 budget = sliceBudget(ctx);
        u64 before = ctx.retired();
        isa::InterpResult r;
        if (budget == 0) {
            r.status = isa::InterpResult::Status::StepLimit;
            r.steps = ctx.retired();
        } else {
            r = ctx.interp->runSlice(budget);
        }
        u64 ran = ctx.retired() - before;
        vclock += ran;
        st.stepsExecuted += ran;
        ++st.slices;
        ++ctx.slices;
        if (mx)
            mx->recordThreadSteps(ctx.pid, ctx.tid, ran);
        ctx.last = r;
        switch (r.status) {
          case isa::InterpResult::Status::Halted:
          case isa::InterpResult::Status::StepLimit:
            ctx.state = ExecContext::State::Done;
            break;
          case isa::InterpResult::Status::Fault: {
            ctx.state = ExecContext::State::Done;
            // SIG_PROT, as for a trap in host code (runGuest): a
            // handler runs, otherwise the process dies through the one
            // teardown.  The interpreter has recorded the fault.
            DeathInfo info;
            info.signal = SIG_PROT;
            info.fault = r.fault;
            info.faultAddr = r.faultAddr;
            info.detail = std::string(isa::opName(r.faultOp)) + " faulted";
            kern.faultProcess(proc, info, true);
            break;
          }
          case isa::InterpResult::Status::Preempted:
            if (ctx.state == ExecContext::State::Blocked) {
                if (ctx.restartOnWake) {
                    // Re-execute the blocking syscall on wake (the
                    // register file still belongs to this thread: no
                    // other context has run since the slice ended).
                    ThreadRegs &regs = proc.regs();
                    regs.pcc = regs.pcc.setAddress(
                        regs.pcc.address() - isa::insnSize);
                }
                blocked.push_back(&ctx);
            } else if (ctx.state == ExecContext::State::Done) {
                // Retired mid-slice (process exit, thread self-exit).
            } else {
                u64 used = ctx.retired() - ctx.readyBaseSteps;
                if (ctx.stepLimit && used >= ctx.stepLimit) {
                    // The caller's step limit, not the time slice,
                    // ended this context: report it like run() would.
                    ctx.last.status =
                        isa::InterpResult::Status::StepLimit;
                    ctx.state = ExecContext::State::Done;
                } else {
                    ++st.preemptions;
                    ctx.state = ExecContext::State::Runnable;
                    runq.push_back(&ctx);
                }
            }
            break;
          case isa::InterpResult::Status::Running:
            ctx.state = ExecContext::State::Done;
            break;
        }
    }
    current = nullptr;
    lastRan = &ctx;
    // Slice-boundary background work: revocation pump + proactive
    // reclaim, then the observation hook (the fuzzer's oracle).
    if (!proc.exited())
        kern.backgroundTick(proc);
    if (sliceHook)
        sliceHook(proc);
}

void
Scheduler::runUntilIdle()
{
    if (running)
        return;
    running = true;
    try {
        drainLoop();
    } catch (const panic::Unwind &) {
        // A kernel panic unwound out of a slice: every frame below
        // (interpreter, dispatch) is already gone, so the transactional
        // reset — which retires our contexts via resetForPanic() — is
        // safe to run here.  The host never sees the exception.
        kern.panicReset();
        running = false;
        return;
    }
    running = false;
    // Hosted contexts are one-shot: drop the finished ones.
    hosted.erase(std::remove_if(hosted.begin(), hosted.end(),
                                [&](const auto &h) {
                                    if (h->state !=
                                        ExecContext::State::Done)
                                        return false;
                                    if (lastRan == h.get())
                                        lastRan = nullptr;
                                    return true;
                                }),
                 hosted.end());
}

void
Scheduler::drainLoop()
{
    while (true) {
        // Wake sleepers whose virtual-clock deadline has passed, and
        // FD waiters whose select timeout expired (marked timed-out so
        // the restarted select reports 0 ready instead of re-polling
        // forever).
        std::vector<ExecContext *> expired;
        for (ExecContext *b : blocked) {
            if (b->blockKind == BlockKind::Sleep && b->blockArg <= vclock)
                expired.push_back(b);
            else if (b->blockKind == BlockKind::Fd &&
                     b->fdDeadlineArmed && b->fdDeadline <= vclock) {
                b->fdTimedOut = true;
                expired.push_back(b);
            }
        }
        for (ExecContext *b : expired)
            wake(*b);
        if (runq.empty()) {
            // Idle: if only sleepers (or timed FD waits) remain,
            // advance the virtual clock straight to the earliest
            // deadline.  Contexts blocked on events, children, or
            // deadline-less FDs that can no longer progress stay
            // parked (a host can still wake them later).
            u64 earliest = ~u64{0};
            for (ExecContext *b : blocked) {
                if (b->blockKind == BlockKind::Sleep)
                    earliest = std::min(earliest, b->blockArg);
                else if (b->blockKind == BlockKind::Fd &&
                         b->fdDeadlineArmed)
                    earliest = std::min(earliest, b->fdDeadline);
            }
            if (earliest == ~u64{0}) {
                // Nothing deadline-driven remains.  Give the deadlock
                // watchdog a look at the deadline-less parks: a kill
                // frees the cycle and the drain continues; otherwise
                // the survivors stay parked for a host wake.
                if (watchdogScan())
                    continue;
                break;
            }
            vclock = std::max(vclock, earliest);
            ++st.idleAdvances;
            continue;
        }
        st.maxRunQueueDepth =
            std::max<u64>(st.maxRunQueueDepth, runq.size());
        ExecContext *ctx = runq.front();
        runq.pop_front();
        if (ctx->state != ExecContext::State::Runnable)
            continue; // retired or re-blocked while queued
        Process *proc = kern.findProcess(ctx->pid);
        if (!proc || proc->exited()) {
            ctx->state = ExecContext::State::Done;
            continue;
        }
        runOneSlice(*ctx, *proc);
    }
}

void
Scheduler::resetForPanic()
{
    // Kernel-panic teardown: the object survives (panicReset runs
    // underneath our own drain), but every context goes.  The slice
    // hook survives too — the fuzzer's oracle stays attached across
    // the reset.  The counters are the kernel's; panicReset zeroes
    // them.
    ctxs.clear();
    hosted.clear();
    runq.clear();
    blocked.clear();
    current = nullptr;
    lastRan = nullptr;
    vclock = 0;
}

bool
Scheduler::watchdogScan()
{
    DeadlockPolicy policy = kern.config().deadlockPolicy;
    if (policy == DeadlockPolicy::Off || blocked.empty())
        return false;
    // Candidate stuck set: every deadline-less blocked context (the
    // caller established there are no deadlines left).  A fixpoint
    // pass removes any context a *capable* peer could still wake; what
    // survives is a true wait-for cycle or an orphaned wait.
    std::vector<ExecContext *> stuck(blocked.begin(), blocked.end());
    auto isStuck = [&](const ExecContext *c) {
        return std::find(stuck.begin(), stuck.end(), c) != stuck.end();
    };
    // A process can still act if it is live and either has no
    // scheduler contexts at all (host-driven: the host can run it at
    // any time) or has at least one non-done context outside the stuck
    // set.
    auto capable = [&](u64 pid) {
        Process *p = kern.findProcess(pid);
        if (!p || p->exited())
            return false;
        bool has_ctx = false, has_free = false;
        for (const auto &[key, c] : ctxs) {
            if (key.first != pid ||
                c->state == ExecContext::State::Done)
                continue;
            has_ctx = true;
            if (!isStuck(c.get()))
                has_free = true;
        }
        return !has_ctx || has_free;
    };
    bool changed = true;
    while (changed) {
        changed = false;
        for (auto it = stuck.begin(); it != stuck.end();) {
            ExecContext *c = *it;
            bool wakeable = false;
            switch (c->blockKind) {
              case BlockKind::Wait4:
                // Wakeable iff a matching live child can still exit.
                kern.forEachProcess([&](const Process &ch) {
                    if (ch.ppid() != c->pid || ch.exited())
                        return;
                    if (c->blockArg != 0 && ch.pid() != c->blockArg)
                        return;
                    if (capable(ch.pid()))
                        wakeable = true;
                });
                break;
              case BlockKind::EventWait:
                // Any capable live process can ev_post to the waiter.
                kern.forEachProcess([&](const Process &p) {
                    if (!p.exited() && capable(p.pid()))
                        wakeable = true;
                });
                break;
              case BlockKind::Fd:
                for (u64 chan : c->fdChans) {
                    for (u64 pid : kern.fdWakerPids(chan)) {
                        if (capable(pid)) {
                            wakeable = true;
                            break;
                        }
                    }
                    if (wakeable)
                        break;
                }
                break;
              case BlockKind::Sleep:
              case BlockKind::None:
                // Deadline-driven or malformed: never watchdog fodder.
                wakeable = true;
                break;
            }
            if (wakeable) {
                it = stuck.erase(it);
                changed = true;
            } else {
                ++it;
            }
        }
    }
    if (stuck.empty())
        return false;
    kern.noteDeadlockDetected(stuck.size());
    // The kill decision goes through the fault-injection tap: record
    // mode logs it, replay substitutes it, so a victim dies at exactly
    // the same point bit-for-bit.
    bool kill = policy == DeadlockPolicy::Kill;
    kill = kern.faultInjector().confirm(FaultPoint::DeadlockKill, kill);
    if (!kill)
        return false;
    // Deterministic victim: prefer a stuck process none of whose stuck
    // contexts is a Wait4 (a leaf of the wait-for graph — killing it
    // lets a waiting parent reap), then the largest memory footprint,
    // then the highest pid.
    struct Cand
    {
        u64 pid = 0;
        bool waits = false;
        u64 size = 0;
    };
    std::map<u64, Cand> cands;
    for (ExecContext *c : stuck) {
        Cand &cd = cands[c->pid];
        cd.pid = c->pid;
        if (c->blockKind == BlockKind::Wait4)
            cd.waits = true;
    }
    for (auto &[pid, cd] : cands) {
        if (Process *p = kern.findProcess(pid))
            cd.size = p->as().residentPages() + p->as().swappedPages();
    }
    const Cand *best = nullptr;
    for (const auto &[pid, cd] : cands) {
        if (!best) {
            best = &cd;
            continue;
        }
        if (cd.waits != best->waits) {
            if (!cd.waits)
                best = &cd;
            continue;
        }
        if (cd.size != best->size) {
            if (cd.size > best->size)
                best = &cd;
            continue;
        }
        if (cd.pid > best->pid)
            best = &cd;
    }
    Process *victim = best ? kern.findProcess(best->pid) : nullptr;
    if (!victim)
        return false;
    const char *kind = "?";
    for (ExecContext *c : stuck) {
        if (c->pid != victim->pid())
            continue;
        switch (c->blockKind) {
          case BlockKind::Wait4: kind = "wait4"; break;
          case BlockKind::EventWait: kind = "ev_wait"; break;
          case BlockKind::Fd: kind = "fd"; break;
          default: break;
        }
        break;
    }
    kern.deadlockKill(*victim,
                      "deadlock: " + std::to_string(stuck.size()) +
                          " stuck context(s); victim pid " +
                          std::to_string(victim->pid()) +
                          " blocked on " + kind);
    return true;
}

Scheduler &
schedulerFor(Kernel &kern)
{
    if (auto *s = dynamic_cast<Scheduler *>(kern.scheduler()))
        return *s;
    auto owned = std::make_unique<Scheduler>(kern);
    Scheduler &ref = *owned;
    kern.installScheduler(std::move(owned));
    return ref;
}

} // namespace cheri::sched
