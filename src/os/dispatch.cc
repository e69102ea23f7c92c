/**
 * @file
 * The numbered system-call dispatcher.
 *
 * Single entry point for every guest syscall: argument marshalling from
 * the register file, the SysNum -> sysFoo switch, result/errno
 * conversion to the register convention, and per-syscall metrics —
 * all in one place (see the class comment in kernel.h).
 */

#include <cstdint>

#include "obs/metrics.h"
#include "os/sched/sched.h"
#include "os/sys_invoke.h"

namespace cheri
{

namespace
{

/** Integer argument @p i of the in-flight syscall. */
u64
argInt(const Process &proc, unsigned i)
{
    return proc.regs().x[regArg0 + i];
}

/**
 * Pointer argument @p i.  CheriABI: the capability register, exactly as
 * delivered (Figure 3 — the kernel never substitutes authority).
 * Hybrid: a tagged capability register if the caller annotated the
 * pointer, the integer register otherwise.  mips64: always the integer
 * register; the kernel wraps it later.
 */
UserPtr
argPtr(const Process &proc, unsigned i)
{
    const ThreadRegs &r = proc.regs();
    if (proc.abi() == Abi::CheriAbi)
        return UserPtr::fromCap(r.c[regArg0 + i]);
    if (r.c[regArg0 + i].tag())
        return UserPtr::fromCap(r.c[regArg0 + i]);
    return UserPtr::fromAddr(r.x[regArg0 + i]);
}

} // namespace

SysResult
Kernel::dispatch(Process &proc, u64 code)
{
    try {
        return dispatchInner(proc, code);
    } catch (const panic::Unwind &) {
        // Under an active scheduler drain the panic belongs to the
        // scheduler's catch site (it owns the slice on the stack);
        // host-driven dispatches absorb it here.  Either way the reset
        // destroys @p proc, so nothing below may touch it.
        if (sch->active())
            throw;
        panicReset();
        return SysResult::fail(E_FAULT);
    }
}

SysResult
Kernel::dispatchInner(Process &proc, u64 code)
{
    const SyscallInfo *info = syscallInfo(code);
    const u64 cycles0 = proc.cost().cycles();
    // Quiescent-point clock: RevocationEpoch::closeSeq records the
    // tick at which an epoch closed, and the oracle keys on it.
    ++quiescentSeq;
    // Panic attribution + the flight recorder's syscall trail.
    lastDispatchPid = proc.pid();
    lastDispatchCode = code;
    recorder.record(panic::EventKind::Syscall, proc.pid(), code,
                    quiescentSeq);
    if (panicPlant && --panicPlant == 0) {
        // Test seam: fail a kassert with otherwise-consistent state.
        CHERI_KASSERT(panicPlant != 0,
                      "planted dispatch panic (test seam)");
    }
    if (mx)
        mx->setCurrentSyscall(info ? code : 0);

    SysResult res;
    UserPtr out;
    bool hasOut = false;

    if (!info) {
        res = SysResult::fail(E_NOSYS);
    } else {
        switch (info->num) {
          case SysNum::Exit:
            exitProcess(proc, static_cast<int>(argInt(proc, 0)));
            res = SysResult::ok();
            break;
          case SysNum::Fork: {
            Process *child = fork(proc);
            res = child ? SysResult::ok(child->pid())
                        : SysResult::fail(E_NOMEM);
            break;
          }
          case SysNum::Wait4:
            res = wait4(proc, argInt(proc, 0));
            break;
          case SysNum::Read:
            res = sysRead(proc, static_cast<int>(argInt(proc, 0)),
                          argPtr(proc, 1), argInt(proc, 2));
            break;
          case SysNum::Write:
            res = sysWrite(proc, static_cast<int>(argInt(proc, 0)),
                           argPtr(proc, 1), argInt(proc, 2));
            break;
          case SysNum::Open:
            res = sysOpen(proc, argPtr(proc, 0),
                          static_cast<u32>(argInt(proc, 1)));
            break;
          case SysNum::Close:
            res = sysClose(proc, static_cast<int>(argInt(proc, 0)));
            break;
          case SysNum::Lseek:
            res = sysLseek(proc, static_cast<int>(argInt(proc, 0)),
                           static_cast<s64>(argInt(proc, 1)),
                           static_cast<int>(argInt(proc, 2)));
            break;
          case SysNum::Pipe: {
            int fds[2] = {-1, -1};
            res = sysPipe(proc, fds, static_cast<u32>(argInt(proc, 1)));
            if (!res.failed()) {
                std::int32_t guest_fds[2] = {fds[0], fds[1]};
                int err = copyout(proc, guest_fds, argPtr(proc, 0),
                                  sizeof(guest_fds));
                if (err)
                    res = SysResult::fail(err);
            }
            break;
          }
          case SysNum::Dup:
            res = sysDup(proc, static_cast<int>(argInt(proc, 0)));
            break;
          case SysNum::Getcwd:
            res = sysGetcwd(proc, argPtr(proc, 0), argInt(proc, 1));
            break;
          case SysNum::Select:
            res = sysSelect(proc, static_cast<int>(argInt(proc, 0)),
                            argPtr(proc, 1), argPtr(proc, 2),
                            argPtr(proc, 3), argPtr(proc, 4));
            break;
          case SysNum::Mmap:
            res = sysMmap(proc, argPtr(proc, 0), argInt(proc, 1),
                          static_cast<u32>(argInt(proc, 2)),
                          static_cast<u32>(argInt(proc, 3)), &out);
            hasOut = true;
            break;
          case SysNum::Munmap:
            res = sysMunmap(proc, argPtr(proc, 0), argInt(proc, 1));
            break;
          case SysNum::Mprotect:
            res = sysMprotect(proc, argPtr(proc, 0), argInt(proc, 1),
                              static_cast<u32>(argInt(proc, 2)));
            break;
          case SysNum::Msync:
            res = sysMsync(proc, argPtr(proc, 0), argInt(proc, 1));
            break;
          case SysNum::Sbrk:
            res = sysSbrk(proc, static_cast<s64>(argInt(proc, 0)));
            break;
          case SysNum::Getpid:
            res = sysGetpid(proc);
            break;
          case SysNum::Getppid:
            res = sysGetppid(proc);
            break;
          case SysNum::Kill:
            res = sysKill(proc, argInt(proc, 0),
                          static_cast<int>(argInt(proc, 1)));
            break;
          case SysNum::Sigprocmask:
            res = sysSigprocmask(proc, argInt(proc, 0), argInt(proc, 1));
            break;
          case SysNum::Revoke2: {
            // revoke2(ranges, nranges, flags): ranges is an array of
            // {u64 lo; u64 hi} pairs.  nranges == 0 legitimately skips
            // the copyin (the drain/poll forms pass a null pointer).
            u64 nranges = argInt(proc, 1);
            u32 flags = static_cast<u32>(argInt(proc, 2));
            constexpr u64 maxRanges = 1024;
            if (nranges > maxRanges) {
                res = SysResult::fail(E_INVAL);
                break;
            }
            std::vector<std::pair<u64, u64>> ranges(nranges);
            int err = E_OK;
            if (nranges != 0) {
                static_assert(sizeof(std::pair<u64, u64>) == 16);
                err = copyin(proc, argPtr(proc, 0), ranges.data(),
                             nranges * 16);
            }
            res = err ? SysResult::fail(err)
                      : sysRevoke2(proc, ranges, flags);
            break;
          }
          case SysNum::ThrNew: {
            u64 stack = argInt(proc, 0);
            res = stack ? sysThrNew(proc, stack) : sysThrNew(proc);
            break;
          }
          case SysNum::ThrSwitch:
            res = sysThrSwitch(proc, argInt(proc, 0));
            break;
          case SysNum::ThrExit:
            res = sysThrExit(proc, argInt(proc, 0));
            break;
          case SysNum::Shmget:
            res = sysShmget(proc, argInt(proc, 0), argInt(proc, 1));
            break;
          case SysNum::Shmat:
            res = sysShmat(proc, static_cast<int>(argInt(proc, 0)),
                           argPtr(proc, 1), &out);
            hasOut = true;
            break;
          case SysNum::Shmdt:
            res = sysShmdt(proc, argPtr(proc, 0));
            break;
          case SysNum::EvPost:
            res = sysEvPost(proc, argInt(proc, 0));
            break;
          case SysNum::EvWait:
            res = sysEvWait(proc);
            break;
          case SysNum::Sleep:
            res = sysSleep(proc, argInt(proc, 0));
            break;
          case SysNum::Invalid:
          case SysNum::Count:
            res = SysResult::fail(E_NOSYS);
            break;
        }
    }

    // Errno conversion: the one place SysResult meets the register
    // convention for both ABIs.
    ThreadRegs &r = proc.regs();
    r.x[regSysErr] = res.failed() ? 1 : 0;
    r.x[regRetVal] = res.failed() ? static_cast<u64>(res.error)
                                  : res.value;
    if (hasOut) {
        if (!res.failed()) {
            r.c[regRetVal] = out.isCap
                                 ? out.cap
                                 : Capability::fromAddress(out.addr());
            r.x[regRetVal] = out.addr();
        } else {
            r.c[regRetVal] = Capability();
        }
    }

    // Incremental revocation pump: absorb one bounded slice of any open
    // epoch per syscall, amortizing the sweep across dispatches.  Not
    // for revoke2 itself (it already ran its slice) and not for a
    // process whose address space is gone.
    if (!proc.exited() && (!info || info->num != SysNum::Revoke2))
        pumpRevocation(proc);

    if (mx) {
        mx->recordSyscall(info ? code : 0, proc.abi(),
                          proc.cost().cycles() - cycles0, res.failed());
        mx->clearCurrentSyscall();
    }

    // Checking layer: the syscall boundary is where whole-system
    // invariants must hold, so the oracle hook runs after the result
    // has been fully materialized in the register file.
    if (checkHook)
        checkHook(proc, code);
    return res;
}

SysInvokeResult
sysInvoke(Kernel &kern, Process &proc, SysNum num,
          std::initializer_list<SysArg> args)
{
    ThreadRegs &r = proc.regs();
    unsigned i = 0;
    for (const SysArg &a : args) {
        r.x[regArg0 + i] = a.ival;
        if (a.isPtr)
            r.c[regArg0 + i] = a.ptr.cap;
        else
            r.c[regArg0 + i] = Capability();
        ++i;
    }
    SysInvokeResult out;
    out.res = kern.dispatch(proc, static_cast<u64>(num));
    const SyscallInfo *info = syscallInfo(static_cast<u64>(num));
    if (info && info->returnsPtr && !out.res.failed()) {
        const Capability &c = proc.regs().c[regRetVal];
        out.out = c.tag() ? UserPtr::fromCap(c)
                          : UserPtr::fromAddr(c.address());
    }
    return out;
}

} // namespace cheri
