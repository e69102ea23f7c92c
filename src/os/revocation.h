/**
 * @file
 * The unified revocation interface: epoch state machine + kernel-held
 * capability roots.
 *
 * Revocation is the "new interface" the paper's temporal-safety future
 * work calls for (section 6), implemented here in the Cornucopia
 * style: the VM layer keeps a sticky cap-dirty bit per page (set at
 * the capability-store choke points, cleared only when a sweep proves
 * the page free of tagged capabilities), and the kernel runs each
 * revocation as an *epoch* —
 *
 *   Idle --open--> Open --[scan cap-dirty pages, re-scan pages
 *                          cap-stored after their scan, then sweep
 *                          every kernel-held capability store]--> Idle
 *
 * — either synchronously inside one syscall (REVOKE_SYNC) or a bounded
 * slice of pages at a time (REVOKE_INCREMENTAL), amortized across
 * subsequent dispatch() calls so guest syscall latency stays flat.
 *
 * Kernel-held capability stores (the paper: user pointers "may be held
 * in kernel structures for extended periods") are the *roots* the page
 * tables cannot see: the register files, switched-out thread contexts,
 * live signal frames, startup capabilities and kevent udata.  They are
 * listed once, in Kernel::forEachRootCap; the close sweep clears them
 * and the invariant oracle checks them through that same walk, so a new
 * kernel store is added to both by adding it there.
 */

#ifndef CHERI_OS_REVOCATION_H
#define CHERI_OS_REVOCATION_H

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "cap/capability.h"

namespace cheri
{

/** Flags for the unified revocation syscall (revoke2). */
enum RevokeFlags : u32
{
    /**
     * Run the whole epoch inside the call; the result is the number of
     * tags revoked.  With an empty range set, drains any epoch left
     * open by a previous INCREMENTAL call.
     */
    REVOKE_SYNC = 0x1,
    /**
     * Open an epoch and scan one bounded slice; the result is the
     * number of pages still queued (0 = the epoch closed).  With an
     * empty range set, advances the open epoch by one more slice — the
     * poll form an allocator uses to drain its quarantine without ever
     * blocking on a full sweep.
     */
    REVOKE_INCREMENTAL = 0x2,
    /** Scan every content page, ignoring cap-dirty bits (the ablation
     *  baseline, and a paranoia mode). */
    REVOKE_FORCE_FULL = 0x4,
};

/**
 * Where Kernel::forEachRootCap found a capability: the root kind, the
 * instance within it and the register slot.  Formatted only on demand,
 * so a clean oracle pass builds no strings.
 */
struct RootSite
{
    /** Slot values other than a capability register number. */
    enum Slot : int
    {
        /** The root is one capability, not a register file. */
        Whole = -1,
        Pcc = -2,
        Ddc = -3,
        /** A thread's stack capability. */
        Stack = -4,
    };
    static constexpr u64 noIndex = ~u64{0};

    /** "regs", "tid", "sigframe", "kevent-udata", or a startup slot
     *  ("stackCap", "argvCap", "envvCap", "auxvCap", "trampolineCap"). */
    const char *kind;
    /** Thread id, signal-frame depth or kevent index; noIndex for the
     *  kinds with one instance per process. */
    u64 index = noIndex;
    /** Capability register number (>= 0) or a Slot. */
    int slot = Whole;

    /** e.g. "regs pcc", "tid 3 c5", "tid 3 stack", "sigframe 0 ddc",
     *  "kevent-udata 2", "argvCap". */
    std::string toString() const;
};

/** Per-process revocation epoch state (Idle <-> Open). */
struct RevocationEpoch
{
    bool open = false;
    /** Kernel-global epoch id; nonzero while open. */
    u64 id = 0;
    /** Sorted, coalesced (disjoint), validated [lo, hi) ranges under
     *  revocation. */
    std::vector<std::pair<u64, u64>> ranges;
    /** Page VAs still to scan (re-dirtied pages re-enter at the back). */
    std::deque<u64> worklist;
    bool forceFull = false;
    bool incremental = false;
    /** Tags revoked so far in this epoch (pages + roots at close). */
    u64 revoked = 0;
    u64 cyclesAtOpen = 0;
    /**
     * The last successfully *closed* epoch, for the oracle's
     * quarantine rule: the ranges it proved dead, and the quiescent
     * clock value at which it closed (the close itself is a tick, so
     * the value is unique to this close regardless of whether the
     * epoch was driven through dispatch() or a direct syscall entry).
     * The rule fires exactly while that value is current — after the
     * close, before any later kernel entry under which the allocator
     * can have reused the quarantine.
     */
    std::vector<std::pair<u64, u64>> closedRanges;
    u64 closeSeq = 0;
};

/** Membership test against a sorted *disjoint* range set (binary
 *  search — the in-kernel equivalent of CHERIvoke's shadow bitmap).
 *  Only the predecessor range is examined, so overlapping or nested
 *  ranges must be coalesced first (coalesceRanges). */
bool capInSortedRanges(const Capability &cap,
                       const std::vector<std::pair<u64, u64>> &sorted);

/** Sort @p ranges and merge overlapping/adjacent entries in place, the
 *  normal form capInSortedRanges requires. */
void coalesceRanges(std::vector<std::pair<u64, u64>> &ranges);

} // namespace cheri

#endif // CHERI_OS_REVOCATION_H
