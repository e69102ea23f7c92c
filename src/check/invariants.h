/**
 * @file
 * Whole-system invariant oracle.
 *
 * Invariants::check recomputes, from first principles, the global
 * properties the kernel is supposed to maintain across any interleaving
 * of syscalls, faults, COW traffic, and paging, and reports every
 * discrepancy.  It is designed to be invoked at any syscall or trap
 * boundary (see Kernel::setCheckHook) — the points where the system is
 * quiescent — and is read-only: it never walks page tables (which would
 * service faults and perturb LRU state), only inspects them.
 *
 * The invariant list (also documented in DESIGN.md, "Checking layer"):
 *
 *  1. Capability representability: every tagged capability — in the
 *     kernel-held roots (Kernel::forEachRootCap: register files,
 *     thread contexts, live signal frames, startup slots, kevent
 *     udata) and in tagged memory — has bounds that CHERI-Concentrate
 *     re-decompression reproduces exactly for its format.
 *  2. Capability containment: every tagged data capability lies within
 *     its process's rederivation root in bounds and (for memory caps)
 *     permissions.  Sealing authorities (PERM_SEAL/PERM_UNSEAL) are
 *     exempt: they cover otype space, not the address space.
 *  3. Monotonic derivation: every tagged, unsealed memory capability
 *     can be rebuilt verbatim from the process root via CBuildCap —
 *     i.e. it could have been legitimately derived.
 *  4. Frame ownership: a frame referenced by more than one holder
 *     (PTE or SysV segment) is so only via COW or deliberate sharing;
 *     shared_ptr use counts equal the holders the oracle can see; the
 *     set of distinct frames equals PhysMem's live-frame count; no PTE
 *     is simultaneously resident and swapped.
 *  5. Swap accounting: each occupied slot's refcount equals the number
 *     of PTEs naming it (no leaks, no dangling slot references), so
 *     device occupancy equals the page tables' swapped-page footprint.
 *  6. Metrics fault log: when a Metrics registry is attached, its
 *     per-cause fault counters dominate the recorded fault log.  (The
 *     kernel counters have one owner, the kernel, which the registry
 *     reads at emit time, so there is no second copy to cross-check.)
 *  7. Revocation completeness: when a revocation epoch closed at this
 *     exact quiescent point (closeSeq equals the quiescent clock), no
 *     tagged capability into its revoked ranges survives anywhere the
 *     kernel can see — tagged memory, swapped-out tag metadata, or any
 *     kernel-held root (the same forEachRootCap walk the close sweep
 *     clears).
 *  8. A dead process holds nothing: a zombie has no mappings, swap
 *     slots, open descriptors or open revocation epoch — every death
 *     runs the kernel's one teardown (Kernel::endProcess).
 *
 * Documented deviation: a tagged capability may refer to a range that
 * is no longer *mapped* — CheriABI provides spatial, not temporal,
 * safety (revocation is an explicit sweep), so dangling capabilities
 * are legal and the oracle checks root dominance, not liveness.
 * Rule 7 is the temporal-safety counterpart: only a *closed* epoch
 * promises absence, and only at the dispatch boundary where it closed
 * (afterwards the guest may legitimately re-derive into freed ranges).
 */

#ifndef CHERI_CHECK_INVARIANTS_H
#define CHERI_CHECK_INVARIANTS_H

#include <string>
#include <vector>

#include "cap/types.h"

namespace cheri
{
class Kernel;
}

namespace cheri::check
{

/** One invariant breach: which rule, and the evidence. */
struct Violation
{
    /** Stable rule identifier, e.g. "cap-containment". */
    std::string rule;
    /** Human-readable evidence (process, address, counts). */
    std::string detail;
};

/** Outcome of one oracle pass. */
struct Report
{
    std::vector<Violation> violations;

    /** @name Coverage counters (what the pass actually examined) */
    /// @{
    u64 processes = 0;
    u64 capsChecked = 0;
    u64 pagesChecked = 0;
    u64 framesChecked = 0;
    u64 slotsChecked = 0;
    /// @}

    bool ok() const { return violations.empty(); }

    /** Multi-line rendering: one "rule: detail" line per violation. */
    std::string toString() const;
};

class Invariants
{
  public:
    /**
     * Run every check against @p kern's current state.  Records one
     * oracle run (with the violation count) in the kernel's Metrics
     * registry when one is attached.
     */
    static Report check(Kernel &kern);
};

} // namespace cheri::check

#endif // CHERI_CHECK_INVARIANTS_H
