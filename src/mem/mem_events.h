/**
 * @file
 * What the memory layer reports to the kernel above it.
 *
 * PhysMem, SwapDevice and FaultInjector sit below the kernel and cannot
 * call it, so they report through this one interface: an allocation
 * that needs room asks for reclaim, a detected injected corruption
 * raises a machine check, and every injector decision that fires is
 * announced.  The kernel implements it; tests and benches that drive
 * the memory layer alone implement a small fake.
 */

#ifndef CHERI_MEM_MEM_EVENTS_H
#define CHERI_MEM_MEM_EVENTS_H

#include "cap/types.h"
#include "mem/fault_inject.h"

namespace cheri
{

class MemEvents
{
  public:
    virtual ~MemEvents() = default;

    /**
     * Make room for @p wanted frames on behalf of @p requester (the
     * AddressSpace whose fault is being serviced, or nullptr); returns
     * frames actually freed.  May evict from the requester itself —
     * pages pinned by an in-flight fault are never evictable — but must
     * not destroy it.
     */
    virtual u64 reclaim(u64 wanted, const void *requester) = 0;

    /** Injected corruption at @p point was detected at @p where (the
     *  guest VA of a load, or the swap slot id of a swap-in); the
     *  access machine-checks. */
    virtual void machineCheck(FaultPoint point, u64 where) = 0;

    /** An injector decision at @p point fired (after tap
     *  substitution).  Declined decisions, one per guest load, are not
     *  reported. */
    virtual void faultFired(FaultPoint point) = 0;
};

} // namespace cheri

#endif // CHERI_MEM_MEM_EVENTS_H
