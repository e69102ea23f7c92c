#include "check/invariants.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <functional>

#include "cap/capability.h"
#include "check/strfmt.h"
#include "obs/metrics.h"
#include "os/kernel.h"

namespace cheri::check
{

namespace
{

/** Sealing authorities cover otype space, not the address space; they
 *  are exempt from address-space containment. */
bool
isSealer(const Capability &cap)
{
    return (cap.perms() & (PERM_SEAL | PERM_UNSEAL)) != 0;
}

/**
 * Rule 1: the capability's bounds must survive CHERI-Concentrate
 * re-decompression exactly — a tagged capability whose bounds are not
 * representable could never have been produced by the architecture.
 */
bool
representable(const Capability &cap)
{
    if (cap.top() > u128{~u64{0}})
        return true; // whole-address-space root; always representable
    return compress::boundsExactlyRepresentable(cap.base(), cap.length(),
                                                cap.format());
}

/** Rules 1+2 for a tagged kernel-held root capability (bounds only:
 *  register files legitimately hold e.g. execute-permission code caps).
 *  The site is formatted only when a violation is recorded, so a clean
 *  pass builds no strings. */
void
checkRootCap(Report &r, const Process &proc, const RootSite &site,
             const Capability &cap, const Capability &root)
{
    ++r.capsChecked;
    if (!representable(cap)) {
        r.violations.push_back(
            {"cap-representability",
             fmt("pid %" PRIu64 " %s: %s", proc.pid(),
                 site.toString().c_str(), cap.toString().c_str())});
    }
    if (isSealer(cap))
        return;
    if (cap.base() < root.base() || cap.top() > root.top()) {
        r.violations.push_back(
            {"cap-containment",
             fmt("pid %" PRIu64 " %s: %s outside root %s", proc.pid(),
                 site.toString().c_str(), cap.toString().c_str(),
                 root.toString().c_str())});
    }
}

/** Rules 1-3 for one tagged capability resident in @p proc's memory —
 *  including signal frames, which live on the stack. */
void
checkMemoryCap(std::vector<Violation> &out, const Process &proc,
               const Capability &root, u64 va, const Capability &cap)
{
    if (!representable(cap)) {
        out.push_back({"cap-representability",
                       fmt("pid %" PRIu64 " mem @0x%" PRIx64 ": %s",
                           proc.pid(), va, cap.toString().c_str())});
        return;
    }
    if (isSealer(cap))
        return;
    bool contained = cap.base() >= root.base() && cap.top() <= root.top() &&
                     (cap.perms() & ~root.perms()) == 0;
    if (!contained) {
        out.push_back(
            {"cap-containment",
             fmt("pid %" PRIu64 " mem @0x%" PRIx64 ": %s outside root",
                 proc.pid(), va, cap.toString().c_str())});
        return;
    }
    if (cap.sealed())
        return; // CBuildCap round-trips unsealed patterns only
    auto rebuilt = Capability::build(root, cap.withoutTag());
    if (!rebuilt.ok() || !(rebuilt.value() == cap)) {
        out.push_back(
            {"cap-derivation",
             fmt("pid %" PRIu64 " mem @0x%" PRIx64
                 ": %s not rederivable from root",
                 proc.pid(), va, cap.toString().c_str())});
    }
}

/** One content page as the page pass last saw it. */
struct PageRecord
{
    u64 va = 0;
    /** The PTE's frame reference: its use count is read at every check
     *  (rule 4), while the page table's generation is unchanged. */
    const FrameRef *frameRef = nullptr;
    const Frame *frame = nullptr;
    /** frame->stamp() when caps and violations were computed. */
    u64 stamp = 0;
    u64 swapSlot = 0;
    bool swapped = false;
    bool cow = false;
    bool shared = false;
    bool capDirty = false;
    /** Rules 1-3 over the frame's tagged capabilities: how many were
     *  checked, and the breaches in granule order. */
    u64 caps = 0;
    std::vector<Violation> violations;
};

/** One process's page pass. */
struct ProcPages
{
    u64 pid = 0;
    /** The page table's generation the records were read at. */
    u64 gen = 0;
    /** The rederivation root the records were checked against. */
    Capability root;
    u64 mapped = 0;
    std::vector<PageRecord> pages;
    /** Number of the last check that visited this process. */
    u64 lastCheck = 0;
};

/** One frame holder seen in a check: a PTE or a SysV segment. */
struct FrameHold
{
    const Frame *frame = nullptr;
    bool pte = false;
    /** A PTE neither COW nor shared. */
    bool exclusive = false;
    /** shared_ptr use count observed at the holder. */
    long refs = 0;
};

/** Rules 1-3 over the tagged capabilities of @p rec's frame. */
void
checkPageCaps(PageRecord &rec, const Process &proc, const Capability &root)
{
    rec.caps = 0;
    rec.violations.clear();
    rec.stamp = rec.frame->stamp();
    rec.frame->forEachTagged([&](u64 off, const Capability &cap) {
        ++rec.caps;
        checkMemoryCap(rec.violations, proc, root, rec.va + off, cap);
    });
}

/**
 * The page pass: bring @p pp up to date with @p proc's page table.  A
 * full walk re-reads every content PTE and re-checks every page.
 * Otherwise, while the page table's generation is unchanged, only pages
 * whose frame stamp moved are re-checked; after a change the PTEs are
 * re-read, and each page whose frame and stamp (and the root) are the
 * ones its old record was computed for keeps that record's verdicts.
 * Frames and address spaces draw their stamps from one counter that
 * only grows, so equal stamps never come from a recycled object.
 * @p old is scratch storage.
 */
void
pagePass(Report &r, const Process &proc, ProcPages &pp, bool full,
         std::vector<PageRecord> &old)
{
    const AddressSpace &as = proc.as();
    const Capability &root = as.rederivationRoot();
    if (!full && pp.gen == as.generation()) {
        for (PageRecord &rec : pp.pages) {
            if (rec.frame && rec.frame->stamp() != rec.stamp) {
                checkPageCaps(rec, proc, root);
                ++r.pagesRechecked;
            }
        }
        return;
    }
    bool reuse = !full && pp.root == root;
    old.swap(pp.pages);
    pp.pages.clear();
    u64 k = 0;
    as.forEachPteWithCaps<AddressSpace::PteSet::Content>(
        [&](const AddressSpace::PteView &v) {
            PageRecord &rec = pp.pages.emplace_back();
            rec.va = v.va;
            rec.frameRef = v.frameRef;
            rec.frame = v.frame;
            rec.swapSlot = v.swapSlot;
            rec.swapped = v.swapped;
            rec.cow = v.cow;
            rec.shared = v.shared;
            rec.capDirty = v.capDirty;
            while (k < old.size() && old[k].va < v.va)
                ++k;
            PageRecord *prev =
                reuse && k < old.size() && old[k].va == v.va ? &old[k]
                                                             : nullptr;
            if (v.frame) {
                if (prev && prev->frame == v.frame &&
                    prev->stamp == v.frame->stamp()) {
                    rec.stamp = prev->stamp;
                    rec.caps = prev->caps;
                    rec.violations = std::move(prev->violations);
                } else {
                    checkPageCaps(rec, proc, root);
                    ++r.pagesRechecked;
                }
            } else if (!prev || prev->frame || prev->swapSlot != v.swapSlot) {
                ++r.pagesRechecked;
            }
        },
        [](u64, const Capability &) {});
    pp.gen = as.generation();
    pp.root = root;
    pp.mapped = as.mappedPages();
}

} // namespace

std::string
Report::toString() const
{
    std::string out;
    for (const Violation &v : violations) {
        out += v.rule;
        out += ": ";
        out += v.detail;
        out += "\n";
    }
    if (violations.empty())
        out = "ok\n";
    return out;
}

bool
Report::operator==(const Report &o) const
{
    return violations == o.violations && processes == o.processes &&
           capsChecked == o.capsChecked && pagesChecked == o.pagesChecked &&
           framesChecked == o.framesChecked &&
           slotsChecked == o.slotsChecked;
}

/** What an Oracle keeps between checks; the vectors also keep their
 *  capacity, so a clean check allocates nothing. */
struct Oracle::Memo
{
    /** Pid-ascending, the order the kernel visits processes in. */
    std::vector<ProcPages> procs;
    std::vector<PageRecord> oldPages;
    std::vector<FrameHold> frames;
    /** One entry per PTE naming a slot. */
    std::vector<u64> slots;
    u64 checks = 0;
};

Oracle::Oracle() : memo(std::make_unique<Memo>()) {}

Oracle::~Oracle() = default;

Report
Invariants::check(Kernel &kern)
{
    return Oracle().check(kern, Oracle::Walk::Full);
}

Report
Oracle::check(Kernel &kern, Walk walk, bool record)
{
    Report r;
    Memo &m = *memo;
    u64 checkNo = ++m.checks;
    m.frames.clear();
    m.slots.clear();

    kern.forEachProcess([&](const Process &proc) {
        ++r.processes;
        const Capability &root = proc.as().rederivationRoot();

        // Capability state outside the page tables: every kernel-held
        // root (register files, thread and signal-frame contexts,
        // startup slots, kevent udata; Figure 1).  Most are untagged.
        kern.forEachRootCap(proc, [&](const RootSite &site,
                                      const Capability &cap) {
            if (cap.tag())
                checkRootCap(r, proc, site, cap, root);
        });

        // Rule 7: a revocation epoch that closed at this exact
        // quiescent point promises absence — no tagged capability into
        // its ranges anywhere the kernel can see.  Only the close tick
        // itself is checked (the close bumps the quiescent clock, so
        // the window is exact for dispatched and direct entry paths
        // alike): afterwards the guest may legitimately re-derive into
        // the (now reusable) ranges.
        const RevocationEpoch *ep = kern.findRevocationEpoch(proc.pid());
        bool epochClosedNow = ep && !ep->open && ep->closeSeq != 0 &&
                              ep->closeSeq == kern.quiescentCount() &&
                              !ep->closedRanges.empty();

        // The page pass, memoized per process (pid-ascending, as the
        // kernel visits them).
        auto it = std::lower_bound(
            m.procs.begin(), m.procs.end(), proc.pid(),
            [](const ProcPages &p, u64 pid) { return p.pid < pid; });
        if (it == m.procs.end() || it->pid != proc.pid()) {
            it = m.procs.insert(it, ProcPages{});
            it->pid = proc.pid();
        }
        ProcPages &pp = *it;
        pp.lastCheck = checkNo;
        pagePass(r, proc, pp, walk == Walk::Full || epochClosedNow,
                 m.oldPages);

        // The report keeps the order of separate passes over the page
        // table: memory capabilities (rules 1-3), then the PTE rules,
        // then rule 7 over memory, swap and the roots.  Only entries
        // with a frame or a slot can break a rule, so only those are
        // visited.
        r.pagesChecked += pp.mapped;
        for (const PageRecord &rec : pp.pages) {
            r.capsChecked += rec.caps;
            r.violations.insert(r.violations.end(), rec.violations.begin(),
                                rec.violations.end());
        }
        for (const PageRecord &rec : pp.pages) {
            if (rec.frame && rec.swapped) {
                r.violations.push_back(
                    {"pte-resident-and-swapped",
                     fmt("pid %" PRIu64 " va 0x%" PRIx64
                         " holds both a frame and slot %" PRIu64,
                         proc.pid(), rec.va, rec.swapSlot)});
            }
            // Rule 9: sweeps skip pages that are not cap-dirty, so a
            // private page holding a tagged granule must carry the bit.
            // Shared pages are exempt: the close barrier rescans them
            // whatever their bit says.
            if (!rec.shared && !rec.capDirty) {
                u64 tags = rec.frame ? rec.frame->taggedCount()
                                     : kern.swapDevice().slotTagCount(
                                           rec.swapSlot);
                if (tags != 0) {
                    std::string slot =
                        rec.frame ? ""
                                  : fmt(" (slot %" PRIu64 ")", rec.swapSlot);
                    r.violations.push_back(
                        {"cap-dirty-soundness",
                         fmt("pid %" PRIu64 " va 0x%" PRIx64
                             "%s holds %" PRIu64 " tagged granules "
                             "but is not cap-dirty",
                             proc.pid(), rec.va, slot.c_str(), tags)});
                }
            }
            if (rec.frame) {
                m.frames.push_back({rec.frame, true,
                                    !rec.cow && !rec.shared,
                                    rec.frameRef->use_count()});
            } else if (rec.swapped) {
                m.slots.push_back(rec.swapSlot);
            }
        }

        if (epochClosedNow) {
            // Swap tag metadata keeps each tagged granule's pattern with
            // the tag stripped, so it is tested as is; memory and roots
            // may hold untagged values, which promise nothing.
            auto survivor = [&](const char *where, u64 at,
                                const Capability &cap) {
                if (!capInSortedRanges(cap, ep->closedRanges))
                    return;
                r.violations.push_back(
                    {"revoked-cap-survives",
                     fmt("pid %" PRIu64 " %s @0x%" PRIx64
                         ": %s survived closed epoch %" PRIu64,
                         proc.pid(), where, at, cap.toString().c_str(),
                         ep->id)});
            };
            for (const PageRecord &rec : pp.pages) {
                if (rec.frame) {
                    rec.frame->forEachTagged(
                        [&](u64 off, const Capability &cap) {
                            survivor("mem", rec.va + off, cap);
                        });
                }
            }
            for (const PageRecord &rec : pp.pages) {
                if (rec.swapped) {
                    kern.swapDevice().forEachTaggedInSlot(
                        rec.swapSlot, [&](u64 off, const Capability &cap) {
                            survivor("swap", rec.va + off, cap);
                        });
                }
            }
            kern.forEachRootCap(proc, [&](const RootSite &site,
                                          const Capability &cap) {
                if (cap.tag())
                    survivor(site.toString().c_str(), cap.address(), cap);
            });
        }

        // Rule 8: the teardown left an ended process holding nothing.
        if (proc.exited()) {
            u64 maps = 0;
            proc.as().forEachMapping([&](const Mapping &) { ++maps; });
            u64 slots = proc.as().swappedPages();
            bool epoch = ep && ep->open;
            if (maps || slots || proc.fdCount() || epoch) {
                r.violations.push_back(
                    {"dead-process-holds",
                     fmt("pid %" PRIu64 " exited but holds %" PRIu64
                         " mappings, %" PRIu64 " swap slots, %" PRIu64
                         " descriptors%s",
                         proc.pid(), maps, slots, proc.fdCount(),
                         epoch ? ", an open epoch" : "")});
            }
        }
    });
    // Processes gone since the last check take their records along.
    std::erase_if(m.procs, [&](const ProcPages &p) {
        return p.lastCheck != checkNo;
    });

    // SysV segments pin their frames independently of any mapping.
    kern.forEachShmFrame([&](const FrameRef &f) {
        m.frames.push_back({f.get(), false, false, f.use_count()});
    });

    // Rule 4: frame ownership, one run of holders per distinct frame.
    std::sort(m.frames.begin(), m.frames.end(),
              [](const FrameHold &a, const FrameHold &b) {
                  return std::less<const Frame *>()(a.frame, b.frame);
              });
    u64 distinctFrames = 0;
    for (auto at = m.frames.begin(); at != m.frames.end();) {
        const Frame *frame = at->frame;
        u64 pteUsers = 0, shmHolds = 0, exclusiveUsers = 0;
        long observedRefs = 0;
        for (; at != m.frames.end() && at->frame == frame; ++at) {
            pteUsers += at->pte;
            shmHolds += !at->pte;
            exclusiveUsers += at->exclusive;
            observedRefs = at->refs;
        }
        ++distinctFrames;
        ++r.framesChecked;
        u64 holders = pteUsers + shmHolds;
        if (holders > 1 && exclusiveUsers > 0) {
            r.violations.push_back(
                {"frame-aliased-exclusively",
                 fmt("frame %p: %" PRIu64 " holders but %" PRIu64
                     " non-COW non-shared PTEs",
                     static_cast<const void *>(frame), holders,
                     exclusiveUsers)});
        }
        if (observedRefs != static_cast<long>(holders)) {
            r.violations.push_back(
                {"frame-refcount",
                 fmt("frame %p: use_count %ld but %" PRIu64
                     " holders visible",
                     static_cast<const void *>(frame), observedRefs,
                     holders)});
        }
    }
    if (distinctFrames != kern.physMem().liveFrames()) {
        r.violations.push_back(
            {"frame-live-count",
             fmt("page tables + shm reference %" PRIu64 " frames, PhysMem "
                 "reports %" PRIu64 " live",
                 distinctFrames, kern.physMem().liveFrames())});
    }

    // Rule 5: swap accounting, from both directions.
    const SwapDevice &swap = kern.swapDevice();
    std::sort(m.slots.begin(), m.slots.end());
    for (auto at = m.slots.begin(); at != m.slots.end();) {
        u64 slot = *at;
        auto end = std::upper_bound(at, m.slots.end(), slot);
        u64 refs = static_cast<u64>(end - at);
        at = end;
        ++r.slotsChecked;
        u64 devRefs = swap.slotRefs(slot);
        if (devRefs != refs) {
            r.violations.push_back(
                {"slot-refcount",
                 fmt("slot %" PRIu64 ": device refcount %" PRIu64
                     " but %" PRIu64 " PTEs reference it",
                     slot, devRefs, refs)});
        }
    }
    swap.forEachSlot([&](u64 slot, u64 refs) {
        if (!std::binary_search(m.slots.begin(), m.slots.end(), slot)) {
            r.violations.push_back(
                {"slot-leaked",
                 fmt("slot %" PRIu64 " occupied (refs %" PRIu64
                     ") but no PTE references it",
                     slot, refs)});
        }
    });
    // Rule 6: machine-check containment.  Every injected memory
    // corruption (TagBitFlip, DataBitFlip) fires its detection hook
    // exactly once, so the kernel's machine-check count dominates the
    // injector's fired counts.  A shortfall means a corrupted granule
    // slipped past detection — the precursor to a forged capability.
    // (">=", not "==": the machine-check counter deliberately survives
    // the panic path's transactional reset while injector arms do not.)
    {
        FaultInjector &inj = kern.faultInjector();
        u64 corrupted = inj.injected(FaultPoint::TagBitFlip) +
                        inj.injected(FaultPoint::DataBitFlip);
        u64 mchecks = kern.counters().hardening.machineChecks;
        if (mchecks < corrupted) {
            r.violations.push_back(
                {"machine-check-containment",
                 fmt("%" PRIu64 " corruption injections but only "
                     "%" PRIu64 " machine checks: corruption escaped "
                     "detection",
                     corrupted, mchecks)});
        }
    }

    // Rule 7: the registry's per-cause fault counters agree with its
    // recorded fault log.
    if (obs::Metrics *mx = kern.metrics()) {
        std::array<u64, numCapFaults> logged{};
        for (const obs::FaultRecord &f : mx->faults())
            ++logged[static_cast<unsigned>(f.cause)];
        for (unsigned c = 0; c < numCapFaults; ++c) {
            // The record log is capped; counters must dominate it.
            if (mx->faultCount(static_cast<CapFault>(c)) < logged[c]) {
                r.violations.push_back(
                    {"metrics-fault-mirror",
                     fmt("cause %s: counter %" PRIu64
                         " < %" PRIu64 " recorded faults",
                         std::string(
                             capFaultName(static_cast<CapFault>(c)))
                             .c_str(),
                         mx->faultCount(static_cast<CapFault>(c)),
                         logged[c])});
            }
        }
        if (record)
            mx->recordOracleRun(r.violations.size());
    }

    return r;
}

} // namespace cheri::check
