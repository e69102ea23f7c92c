/**
 * @file
 * Kernel threads: per-thread stacks with bounded stack capabilities
 * and capability-register context switching.
 *
 * The kernel saves and restores user-thread register capability state
 * in kernel memory across switches (paper Figure 2, left panel); the
 * abstract capabilities in registers are preserved as architectural
 * capabilities — tags never travel through untagged storage on this
 * path.  Each thread's stack is a separate mapping with its own guard
 * page, and under CheriABI its stack capability is bounded to that
 * mapping alone: threads cannot reach each other's stacks through
 * their stack pointers.
 */

#include "os/kernel.h"
#include "os/sched/sched.h"

#include <algorithm>

namespace cheri
{

namespace
{

/** Find-or-create the record holding @p proc's current thread.
 *  Records live in a deque, so creation never moves existing records
 *  out from under callers holding pointers to them. */
ThreadRecord *
recordForCurrent(Process &proc, std::deque<ThreadRecord> &threads)
{
    for (ThreadRecord &t : threads) {
        if (t.tid == proc.currentTid())
            return &t;
    }
    ThreadRecord rec;
    rec.tid = proc.currentTid();
    rec.stackCap = proc.stackCap;
    threads.push_back(rec);
    return &threads.back();
}

} // namespace

SysResult
Kernel::sysThrNew(Process &proc, u64 stack_size)
{
    chargeSyscall(proc, 1);
    // Reject absurd requests before mapping: a stack larger than this
    // could never be bounded by a capability inside the user root, and
    // pageRound on values near 2^64 wraps to zero.
    constexpr u64 maxThreadStack = u64(1) << 30;
    if (stack_size > maxThreadStack)
        return SysResult::fail(E_INVAL);
    stack_size = pageRound(std::max<u64>(stack_size, 4 * pageSize));
    u64 stack_va = proc.as().map(0, stack_size, PROT_READ | PROT_WRITE,
                                 MappingKind::Stack, false, false,
                                 "thread-stack");
    if (stack_va == 0)
        return SysResult::fail(E_NOMEM);
    // Guard page below, like the main stack.
    proc.as().map(stack_va - pageSize, pageSize, PROT_NONE,
                  MappingKind::Guard, true, false, "thread-guard");

    ThreadRecord rec;
    rec.tid = proc.nextTid++;
    // The new thread starts as a clone of the creator's context with
    // its own stack capability and a clean argument register.
    rec.saved = proc.regs();
    if (proc.abi() == Abi::CheriAbi) {
        Capability sc = proc.as().capForRange(
            stack_va, stack_size, PROT_READ | PROT_WRITE, false);
        rec.stackCap = sc.setAddress(stack_va + stack_size);
        if (traceSink)
            traceSink->derive(DeriveSource::Kern, rec.stackCap);
    } else {
        rec.stackCap = Capability::fromAddress(stack_va + stack_size);
    }
    rec.saved.stack() = rec.stackCap;
    rec.saved.c[regArgv] = Capability();
    u64 tid = rec.tid;
    proc.threads.push_back(rec);
    proc.cost().capManip(3);
    sch->onThreadNew(proc, tid);
    return SysResult::ok(tid);
}

int
Kernel::switchThreadContext(Process &proc, u64 tid)
{
    if (tid == proc.currentTid())
        return E_OK;
    ThreadRecord *target = proc.threadById(tid);
    if (!target && tid != 0)
        return E_SRCH;
    // Save the running context (tags preserved: the register file is
    // copied as architectural capabilities, never as raw bytes).  The
    // deque gives records stable addresses, so creating the current
    // thread's record cannot move `target`.
    ThreadRecord *cur = recordForCurrent(proc, proc.threads);
    cur->saved = proc.regs();
    if (!target)
        target = proc.threadById(tid);
    if (!target)
        return E_SRCH;
    proc.regs() = target->saved;
    proc.curThread = tid;
    contextSwitchTo(proc);
    return E_OK;
}

SysResult
Kernel::sysThrSwitch(Process &proc, u64 tid)
{
    chargeSyscall(proc, 0);
    if (tid == proc.currentTid()) {
        // A self-exited current thread is a zombie: it occupies the
        // register file but is no longer a switch target.
        for (const ThreadRecord &t : proc.threads) {
            if (t.tid == tid && !t.live)
                return SysResult::fail(E_SRCH);
        }
        return SysResult::ok(tid);
    }
    ThreadRecord *target = proc.threadById(tid);
    if (!target && tid != 0)
        return SysResult::fail(E_SRCH);
    if (target && !target->live)
        return SysResult::fail(E_SRCH);
    // From a guest the scheduler is running the switch is a directed
    // yield: the register files swap at the next slice boundary (the
    // scheduler owns them mid-slice), never underneath a half-executed
    // instruction.
    if (sch->onThreadSwitch(proc, tid))
        return SysResult::ok(tid);
    int err = switchThreadContext(proc, tid);
    if (err != E_OK)
        return SysResult::fail(err);
    return SysResult::ok(tid);
}

SysResult
Kernel::sysThrExit(Process &proc, u64 tid)
{
    chargeSyscall(proc, 0);
    if (tid == proc.currentTid()) {
        // Self-exit: mark the record dead but defer teardown — the
        // register file stays installed until the scheduler's next
        // pick drops the context (zombie until reaped).  The last
        // live thread exiting takes the process with it.
        bool last = proc.threadCount() <= 1;
        ThreadRecord *self = recordForCurrent(proc, proc.threads);
        self->saved = proc.regs();
        self->live = false;
        sch->onThreadExit(proc, tid);
        if (last)
            exitProcess(proc, 0);
        return SysResult::ok();
    }
    ThreadRecord *t = proc.threadById(tid);
    if (!t)
        return SysResult::fail(E_SRCH);
    t->live = false;
    sch->onThreadExit(proc, tid);
    return SysResult::ok();
}

} // namespace cheri
