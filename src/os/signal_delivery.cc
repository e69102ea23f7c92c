/**
 * @file
 * Signal delivery with capability-bearing signal frames (Figure 2).
 *
 * Delivery spills the thread's full capability register state to a
 * frame on the user stack — as tagged capabilities, via the
 * capability-preserving store path — runs the handler, and on return
 * restores register state *from the in-memory frame*.  Tags survive the
 * round trip; conversely, any byte-level tampering with a saved
 * capability unseats its tag and the restored register is dead, exactly
 * as the architecture demands.
 */

#include "os/kernel.h"

#include "obs/metrics.h"

namespace cheri
{

namespace
{

/** Signals whose default action terminates the process. */
bool
defaultTerminates(int sig)
{
    switch (sig) {
      case SIG_CHLD:
      case SIG_STOP:
        return false;
      default:
        return true;
    }
}

/** Frame slots: signo, faultAddr, cause, then pcc, ddc, c[0..31]. */
constexpr u64 numFrameCaps = 2 + numCapRegs;

/** A signal frame that cannot be spilled or restored (the stack page's
 *  swap-in failed, or frame allocation was exhausted) is a guest fault,
 *  never a host abort: record it and return the death, with its precise
 *  cause.  Delivery kills directly rather than re-entering the SIG_PROT
 *  path — a recursive delivery would need the same unwritable stack. */
DeathInfo
sigFrameDeath(obs::Metrics *mx, const Process &proc, int sig, u64 va,
              CapFault cause, const char *what)
{
    if (mx) {
        mx->recordFault(cause, proc.regs().pcc.address(), va, nullptr,
                        proc.abi());
    }
    DeathInfo di;
    di.signal = sig ? sig : SIG_PROT;
    di.fault = cause;
    di.faultAddr = va;
    di.detail = what;
    return di;
}

} // namespace

SysResult
Kernel::sysSigaction(Process &proc, int sig, SigAction act)
{
    chargeSyscall(proc, 1);
    if (sig <= 0 || sig >= numSignals)
        return SysResult::fail(E_INVAL);
    if (sig == SIG_KILL || sig == SIG_STOP)
        return SysResult::fail(E_INVAL);
    proc.sigaction(sig) = act;
    return SysResult::ok();
}

SysResult
Kernel::sysKill(Process &proc, u64 pid, int sig)
{
    chargeSyscall(proc, 0);
    Process *target = findProcess(pid);
    if (!target)
        return SysResult::fail(E_SRCH);
    if (sig <= 0 || sig >= numSignals)
        return SysResult::fail(E_INVAL);
    if (sig == SIG_KILL) {
        DeathInfo killed;
        killed.signal = SIG_KILL;
        killed.detail = "killed";
        endProcess(*target, killed);
        return SysResult::ok();
    }
    target->raiseSignal(sig);
    return SysResult::ok();
}

SysResult
Kernel::sysSigprocmask(Process &proc, u64 block, u64 unblock)
{
    chargeSyscall(proc, 0);
    proc.sigMask |= block;
    proc.sigMask &= ~unblock;
    proc.sigMask &= ~(u64{1} << SIG_KILL);
    return SysResult::ok();
}

bool
Kernel::pushSigFrame(Process &proc, SigFrame &frame)
{
    const bool cheri = proc.abi() == Abi::CheriAbi;
    const u64 slot = cheri ? capSize : 8;
    const u64 header = 48; // signo, faultAddr, cause, pad to 16
    const u64 frame_len = header + numFrameCaps * slot +
                          (cheri ? 0 : numCapRegs * 8);
    u64 sp = proc.regs().stack().address();
    u64 va = (sp - frame_len) & ~u64{15};
    frame.frameVa = va;

    u64 hdr[3] = {static_cast<u64>(frame.signo), frame.faultAddr,
                  static_cast<u64>(frame.faultCause)};
    CapCheck err = proc.mem().write(va, hdr, sizeof(hdr));

    auto store_slot = [&](u64 idx, const Capability &cap) -> CapCheck {
        u64 at = va + header + idx * slot;
        if (cheri)
            return proc.mem().writeCap(at, cap);
        u64 a = cap.address();
        return proc.mem().write(at, &a, 8);
    };
    const ThreadRegs &regs = proc.regs();
    if (!err)
        err = store_slot(0, regs.pcc);
    if (!err)
        err = store_slot(1, regs.ddc);
    for (unsigned i = 0; i < numCapRegs && !err; ++i)
        err = store_slot(2 + i, regs.c[i]);
    if (!cheri && !err) {
        u64 xbase = va + header + numFrameCaps * 8;
        err = proc.mem().write(xbase, regs.x.data(), numCapRegs * 8);
    }
    if (err) {
        endProcess(proc, sigFrameDeath(mx, proc, frame.signo, va, *err,
                                       "signal frame spill failed"));
        return false;
    }
    frame.saved = regs;
    // Cost: trap entry plus spilling the (ABI-width) register file.
    proc.cost().syscall(0);
    proc.cost().copyLoop(0x7f0000000, va, frame_len);

    // Handler runs with the stack below the frame and the return path
    // through the tightly bounded trampoline capability.
    proc.regs().stack() = proc.regs().stack().setAddress(va);
    proc.regs().c[regLink] = proc.trampolineCap;
    return true;
}

bool
Kernel::popSigFrame(Process &proc, const SigFrame &frame)
{
    const bool cheri = proc.abi() == Abi::CheriAbi;
    const u64 slot = cheri ? capSize : 8;
    const u64 header = 48;
    u64 va = frame.frameVa;
    ThreadRegs regs = proc.regs();

    CapFault fail = CapFault::None;
    auto load_slot = [&](u64 idx) -> Capability {
        u64 at = va + header + idx * slot;
        if (cheri) {
            Result<Capability> r = proc.mem().readCap(at);
            if (!r.ok()) {
                if (fail == CapFault::None)
                    fail = r.fault();
                return Capability();
            }
            return r.value();
        }
        u64 a = 0;
        CapCheck chk = proc.mem().read(at, &a, 8);
        if (chk) {
            if (fail == CapFault::None)
                fail = *chk;
            return Capability();
        }
        return Capability::fromAddress(a);
    };
    if (cheri) {
        regs.pcc = load_slot(0);
        regs.ddc = load_slot(1);
    } else {
        // The legacy frame holds only 64-bit register values; PCC and
        // DDC are kernel-managed state the signal path preserves
        // directly (legacy userspace never held capabilities).
        regs.pcc = frame.saved.pcc;
        regs.ddc = frame.saved.ddc;
    }
    for (unsigned i = 0; i < numCapRegs && fail == CapFault::None; ++i)
        regs.c[i] = load_slot(2 + i);
    if (!cheri && fail == CapFault::None) {
        CapCheck chk = proc.mem().read(va + header + numFrameCaps * 8,
                                       regs.x.data(), numCapRegs * 8);
        if (chk)
            fail = *chk;
    }
    if (fail != CapFault::None) {
        // Registers stay untouched: a half-restored file would be
        // unobservable anyway, the process is dead on return.
        endProcess(proc, sigFrameDeath(mx, proc, frame.signo, va, fail,
                                       "signal frame restore failed"));
        return false;
    }
    proc.regs() = regs;
    proc.cost().copyLoop(va, 0x7f0000000, header + numFrameCaps * slot);
    return true;
}

u64
Kernel::deliverSignals(Process &proc)
{
    u64 delivered = 0;
    u64 live = proc.pendingSignals() & ~proc.sigMask;
    for (int sig = 1; sig < numSignals && !proc.exited(); ++sig) {
        if (!(live & (u64{1} << sig)))
            continue;
        proc.clearPending(sig);
        SigAction &act = proc.sigaction(sig);
        switch (act.kind) {
          case SigAction::Kind::Ignore:
            continue;
          case SigAction::Kind::Default:
            if (defaultTerminates(sig)) {
                DeathInfo death;
                death.signal = sig;
                death.detail = "default action";
                endProcess(proc, death);
            }
            continue;
          case SigAction::Kind::Handler: {
            const SigHandler *fn = proc.handlerById(act.handlerId);
            if (!fn)
                continue;
            SigFrame frame;
            frame.signo = sig;
            if (!pushSigFrame(proc, frame))
                break; // spill faulted; the process is dead
            // The interrupted context now lives in this kernel-side
            // frame; expose it to the revocation sweep for the
            // handler's duration (a handler may run revoke2).
            proc.liveSigFrames.push_back(&frame);
            (*fn)(proc, frame);
            proc.liveSigFrames.pop_back();
            if (!popSigFrame(proc, frame))
                break;
            ++delivered;
            break;
          }
        }
        live = proc.pendingSignals() & ~proc.sigMask;
        sig = 0; // rescan from the start after running a handler
    }
    return delivered;
}

} // namespace cheri
