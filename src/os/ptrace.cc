/**
 * @file
 * ptrace: debugging across principals.
 *
 * The debugger and target are distinct abstract principals; their
 * capabilities must not flow between them (paper section 3,
 * "Debugging").  The debugger may *inspect* target capabilities, and
 * may *inject* capabilities — but injected capabilities are rederived
 * from the target's own root, never transplanted from the debugger's
 * address space, and rederivation fails closed when the requested
 * pattern exceeds the target root's authority.
 */

#include "os/kernel.h"

#include <algorithm>

namespace cheri
{

namespace
{

bool
isAttached(const std::vector<std::pair<u64, u64>> &attached, u64 debugger,
           u64 target)
{
    return std::find(attached.begin(), attached.end(),
                     std::make_pair(debugger, target)) != attached.end();
}

} // namespace

SysResult
Kernel::sysPtrace(Process &debugger, PtReq req, u64 pid, u64 addr,
                  void *host_buf, u64 len)
{
    chargeSyscall(debugger, 1);
    Process *target = findProcess(pid);
    if (!target)
        return SysResult::fail(E_SRCH);
    switch (req) {
      case PtReq::Attach:
        if (isAttached(attached, debugger.pid(), pid))
            return SysResult::fail(E_BUSY);
        attached.emplace_back(debugger.pid(), pid);
        return SysResult::ok();
      case PtReq::Detach:
        std::erase(attached, std::make_pair(debugger.pid(), pid));
        return SysResult::ok();
      case PtReq::ReadData: {
        if (!isAttached(attached, debugger.pid(), pid))
            return SysResult::fail(E_PERM);
        CapCheck f = target->mem().read(addr, host_buf, len);
        return f.has_value() ? SysResult::fail(E_FAULT) : SysResult::ok(len);
      }
      case PtReq::WriteData: {
        if (!isAttached(attached, debugger.pid(), pid))
            return SysResult::fail(E_PERM);
        // Byte writes clear tags in the target — a debugger poking raw
        // data can never fabricate a capability.
        CapCheck f = target->mem().write(addr, host_buf, len);
        return f.has_value() ? SysResult::fail(E_FAULT) : SysResult::ok(len);
      }
      default:
        return SysResult::fail(E_INVAL);
    }
}

SysResult
Kernel::ptraceReadCap(Process &debugger, u64 pid, u64 addr,
                      Capability *out)
{
    chargeSyscall(debugger, 1);
    Process *target = findProcess(pid);
    if (!target)
        return SysResult::fail(E_SRCH);
    if (!isAttached(attached, debugger.pid(), pid))
        return SysResult::fail(E_PERM);
    // The debugger sees the capability's value (bounds, perms, tag) but
    // receives it as *data*: nothing it holds can dereference target
    // memory directly.
    if (target->mem().readCap(addr, *out))
        return SysResult::fail(E_FAULT);
    return SysResult::ok();
}

SysResult
Kernel::ptraceWriteCap(Process &debugger, u64 pid, u64 addr,
                       const Capability &cap)
{
    chargeSyscall(debugger, 1);
    Process *target = findProcess(pid);
    if (!target)
        return SysResult::fail(E_SRCH);
    if (!isAttached(attached, debugger.pid(), pid))
        return SysResult::fail(E_PERM);
    // Injection rederives from the target's root: the debugger's own
    // capabilities never cross the principal boundary.
    Result<Capability> injected =
        Capability::build(target->as().rederivationRoot(),
                          cap.withoutTag());
    if (!injected.ok())
        return SysResult::fail(E_PROT);
    CapCheck f = target->mem().writeCap(addr, injected.value());
    if (f.has_value())
        return SysResult::fail(E_FAULT);
    if (traceSink)
        traceSink->derive(DeriveSource::Kern, injected.value());
    return SysResult::ok();
}

SysResult
Kernel::ptraceGetRegs(Process &debugger, u64 pid, ThreadRegs *out)
{
    chargeSyscall(debugger, 1);
    Process *target = findProcess(pid);
    if (!target)
        return SysResult::fail(E_SRCH);
    if (!isAttached(attached, debugger.pid(), pid))
        return SysResult::fail(E_PERM);
    *out = target->regs();
    return SysResult::ok();
}

} // namespace cheri
