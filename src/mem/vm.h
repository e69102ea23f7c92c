/**
 * @file
 * Per-process virtual address spaces.
 *
 * An AddressSpace is the kernel-side realization of one abstract
 * principal (paper section 3): a page table mapping virtual pages onto
 * tagged physical frames, with demand-zero fill, copy-on-write,
 * deliberately shared mappings, and paging to a tag-aware swap device.
 * The invariant the OS maintains is exactly the one the paper states:
 * an architectural capability held by this principal can never reach
 * physical memory belonging to another principal, across any sequence
 * of mapping changes, COW copies, or swap traffic.
 *
 * Each address space carries its *rederivation root* — the userspace
 * capability the kernel minted at creation — which is the sole authority
 * used to restore capabilities whose architectural chain was broken
 * (swap-in, debugger injection).
 */

#ifndef CHERI_MEM_VM_H
#define CHERI_MEM_VM_H

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cap/capability.h"
#include "mem/phys_mem.h"
#include "mem/swap.h"

namespace cheri
{

namespace snap
{
struct Access;
}

/** Page protection bits (mmap-style). */
enum Prot : u32
{
    PROT_NONE = 0,
    PROT_READ = 1,
    PROT_WRITE = 2,
    PROT_EXEC = 4,
};

/** What a mapping is for; drives naming and capability permissions. */
enum class MappingKind
{
    Text,
    RoData,
    Data,
    Heap,
    Stack,
    Args,
    SharedMem,
    File,
    Guard,
    Trampoline,
};

/** Reader filling pages of a file-backed mapping: (file offset, dst,
 *  len). */
using BackingReader = std::function<void(u64, u8 *, u64)>;

/** Writer flushing pages of a shared file mapping back to the file. */
using BackingWriter = std::function<void(u64, const u8 *, u64)>;

/** One contiguous virtual-memory reservation. */
struct Mapping
{
    u64 start = 0;
    u64 len = 0;
    u32 prot = PROT_NONE;
    MappingKind kind = MappingKind::Data;
    bool shared = false;
    std::string name;
    /** Non-null for file-backed mappings: pages fill from the file on
     *  first touch instead of demand-zero. */
    std::shared_ptr<BackingReader> backing;
    /** Non-null for MAP_SHARED file mappings: msync flush path. */
    std::shared_ptr<BackingWriter> backingWriter;
    /** File offset corresponding to `start`. */
    u64 backingOffset = 0;

    u64 end() const { return start + len; }
};

class MemAccess;

/**
 * A resolved translation handed to the software TLB (MemAccess): the
 * frame backing one page after any demand-zero / COW / swap-in fault
 * service, plus the state the TLB needs to decide cacheability.
 */
struct PageView
{
    Frame *frame = nullptr;
    u32 prot = PROT_NONE;
    bool cow = false;
    bool shared = false;
    /** Page may hold tagged capabilities (see Pte::capDirty). */
    bool capDirty = false;
    /** A revocation epoch is open against this space: the TLB must
     *  not cache capability-store permission at all, so every cap
     *  store walks and the scheduler sees it (markCapStore). */
    bool sweepEpochOpen = false;
};

class AddressSpace
{
  public:
    /**
     * @param phys frame allocator shared with the whole system
     * @param swap paging store shared with the whole system
     * @param principal fresh abstract principal id for this space
     * @param fmt capability format processes in this space use
     */
    /**
     * @param aslr_seed nonzero seeds address-space layout
     *        randomization: mmap and stack placements are offset by a
     *        seed-derived number of pages (the paper compares the
     *        RTLD's startup relocation cost to ASLR-motivated PIE)
     */
    AddressSpace(PhysMem &phys, SwapDevice &swap, u64 principal,
                 compress::CapFormat fmt = compress::CapFormat::Cap128,
                 u64 aslr_seed = 0);

    /** Detaches any MemAccess objects still bound to this space. */
    ~AddressSpace();

    u64 principal() const { return _principal; }
    compress::CapFormat format() const { return fmt; }

    /** Lowest / one-past-highest mappable user virtual address. */
    static constexpr u64 userBase = 0x10000;
    static constexpr u64 userTop = u64{1} << 40;

    /**
     * The root of this principal's abstract capability: covers
     * [userBase, userTop) with full data permissions.  The kernel derives
     * all startup and mmap-returned capabilities from it, and it is the
     * authority for swap-in and debugger rederivation.
     */
    const Capability &rederivationRoot() const { return root; }

    /** The backing physical memory — the TLB fast path consults its
     *  corruption-injection probes without a page walk. */
    PhysMem &physMem() { return phys; }

    /** @name Mapping management */
    /// @{
    /**
     * Reserve @p len bytes (page-rounded).  With @p fixed, maps exactly
     * at @p addr (failing if occupied unless @p force_replace); otherwise
     * @p addr is a hint and a free range is chosen.  Returns the start
     * address, or 0 on failure.
     */
    u64 map(u64 addr, u64 len, u32 prot, MappingKind kind, bool fixed = false,
            bool shared = false, const std::string &name = "",
            bool force_replace = false);

    /** Remove mappings overlapping [start, start+len). */
    bool unmap(u64 start, u64 len);

    /** Change protection of pages in [start, start+len). */
    bool protect(u64 start, u64 len, u32 prot);

    /** Mapping containing @p va, or nullptr. */
    const Mapping *findMapping(u64 va) const;

    /** True when [start, start+len) overlaps any mapping. */
    bool rangeOccupied(u64 start, u64 len) const;

    void forEachMapping(
        const std::function<void(const Mapping &)> &fn) const;
    /// @}

    /**
     * Mint the capability CheriABI's mmap returns for a fresh mapping:
     * bounded to the (representability-padded) range, permissions derived
     * from the page protections, plus PERM_SW_VMMAP so the caller may
     * later manage the mapping.
     */
    Capability capForRange(u64 start, u64 len, u32 prot,
                           bool with_vmmap = true) const;

    /**
     * Length to request from map() so a capability with exact bounds can
     * be minted for a @p len byte object (compression padding).
     */
    u64 representablePadding(u64 len) const;

    /** @name Checked memory access
     * These perform the MMU side of an access: translation, protection
     * check, demand-zero, COW, swap-in.  Capability-level checks (tag,
     * bounds, perms) belong to the caller.  On translation failure they
     * return the precise cause: PageFault for unmapped/protection,
     * MemoryExhausted when frame allocation failed under pressure,
     * SwapInFailure when the swap device refused a page.
     *
     * These are the reference (walk-per-page) implementations; hot-path
     * consumers go through MemAccess (mem/access.h), which caches
     * translations and falls back to walk() only on TLB miss.
     *
     * Partial-write semantics: multi-page operations are not atomic.
     * writeBytes copies page by page, so when a fault is reported
     * mid-range every byte up to the faulting page boundary has already
     * been stored (mirroring copyout's EFAULT contract); readBytes
     * likewise leaves @p buf partially filled.  Callers that need
     * all-or-nothing behavior must pre-validate the whole range.
     */
    /// @{
    CapCheck readBytes(u64 va, void *buf, u64 len);
    CapCheck writeBytes(u64 va, const void *buf, u64 len);
    /** Capability load: 16-byte aligned. */
    Result<Capability> readCap(u64 va);
    /** Capability store: 16-byte aligned. */
    CapCheck writeCap(u64 va, const Capability &cap);
    /** Clear the tag of the granule containing @p va, if mapped. */
    void clearTagAt(u64 va);
    /// @}

    /**
     * Make [start, start+len) file-backed: untouched pages fill from
     * @p reader (at @p file_offset + page offset) instead of zeroes.
     */
    bool setBacking(u64 start, u64 len, BackingReader reader,
                    BackingWriter writer, u64 file_offset);

    /** Flush resident bytes of [start, start+len) through the
     *  mapping's writer (msync); returns pages written back, or 0 if
     *  the mapping has no writer (private mapping). */
    u64 syncResident(u64 start, u64 len);

    /** COW clone for fork: shared mappings alias, private ones COW. */
    std::unique_ptr<AddressSpace> forkCopy(u64 new_principal) const;

    /**
     * Back the page at @p va (which must already be mapped) with an
     * existing frame, shared with whoever else holds it — the mechanism
     * behind System V shared memory (shmat).
     */
    bool installFrame(u64 va, FrameRef frame);

    /** @name Paging */
    /// @{
    /** Evict the page containing @p va to swap; false if not resident
     *  (or the swap device refused the page). */
    bool swapOutPage(u64 va);
    /**
     * Evict up to @p max_pages resident pages, least-recently-used
     * first (use order is the deterministic walk clock, ties broken by
     * VA, so eviction order is reproducible run to run).  Stops early
     * when the swap device refuses a page.  Returns count evicted.
     */
    u64 swapOutResident(u64 max_pages);
    /**
     * The VAs swapOutResident(max_pages) would evict, in order, without
     * evicting anything — the policy made observable for tests.
     */
    std::vector<u64> evictionOrder(u64 max_pages) const;
    /// @}

    /**
     * Why the most recent walk()/resolvePage() failed: PageFault for
     * unmapped or protection-denied, MemoryExhausted for allocation
     * failure, SwapInFailure for a failed swap-in.  Meaningful only
     * right after a failed access.
     */
    CapFault lastWalkFault() const { return walkFault; }

    /**
     * Drop every resident frame and swap slot this space holds and
     * clear all mappings — OOM-kill and exit teardown.  Returns frames
     * released.
     */
    u64 releaseAll();

    /** Swapped-out page count (slots this space holds). */
    u64 swappedPages() const;

    /** @name Capability-dirty tracking + epoch sweeps (Cornucopia)
     * Each PTE carries a sticky cap-dirty bit meaning "this page may
     * hold tagged capabilities": set at the capability-store choke
     * points (writeCap here and the MemAccess fast path, which only
     * caches cap-store permission for already-dirty pages), and cleared
     * only when a sweep proves the page holds zero tagged granules.  A
     * page the sweep skips therefore provably holds no capabilities at
     * all, which makes skipping sound for arbitrary revocation ranges.
     * Shared pages are never proven clean: a sibling mapping can store
     * capabilities through a translation this space cannot see.
     */
    /// @{
    /** Outcome of sweeping one page for revocation. */
    struct PageSweep
    {
        /** Capability granules examined (0 for a frameless page). */
        u64 granules = 0;
        /** Tags cleared / swap tag-metadata entries dropped. */
        u64 revoked = 0;
        /** Page proven free of tagged capabilities; cap-dirty cleared. */
        bool provenClean = false;
        /** The swap device refused the metadata scan (injected I/O
         *  error); the page stays dirty and must be retried. */
        bool deviceFailed = false;
    };

    /** Totals of the close-barrier rescan of shared pages. */
    struct SharedSweep
    {
        u64 pages = 0;
        u64 granules = 0;
        u64 revoked = 0;
    };

    /** Mapped pages with content (resident or swapped) — the full-scan
     *  sweep universe. */
    u64 contentPages() const;

    /** Page VAs a sweep must visit: cap-dirty pages only, or every
     *  content page under @p force_full. */
    std::vector<u64> sweepWorklist(bool force_full) const;

    /**
     * Sweep one page: clear every capability matching @p pred (resident
     * tags or swap tag metadata), prove the page clean when possible,
     * and stamp it as swept in epoch @p epoch_id (nonzero).  The
     * swap-metadata scan is fault-injectable (FaultPoint::SweepScan);
     * on deviceFailed nothing was modified.
     */
    PageSweep sweepPage(u64 va, u64 epoch_id,
                        const std::function<bool(const Capability &)> &pred);

    /**
     * Close-barrier rescan: sweep every shared content page once more,
     * unconditionally.  Dirtiness is tracked per address space, so a
     * sibling process storing a capability through its own mapping of
     * a shared frame is invisible to this page table — the only sound
     * point to catch it is the epoch-close barrier, when the guest
     * cannot run.  Shared pages are never swapped out, so this scan
     * cannot fail.
     */
    SharedSweep sweepSharedPagesForClose(
        u64 epoch_id,
        const std::function<bool(const Capability &)> &pred);

    /**
     * Open epoch @p epoch_id (nonzero) and return the initial worklist
     * (cap-dirty pages, or every content page under @p force_full),
     * each stamped as queued.  While the epoch is open, a capability
     * store to any page NOT queued in it — a page already scanned, or
     * one mapped fresh mid-epoch — is recorded so the sweep scheduler
     * can scan it before closing.  Opening flushes every listening
     * TLB and suppresses capability-store caching for the epoch's
     * duration, so no cap store can dodge that recording.
     */
    std::vector<u64> beginSweepEpoch(u64 epoch_id, bool force_full);
    /** Close the open epoch (aborting also goes through here). */
    void endSweepEpoch();
    /** Drain the pages cap-stored after their scan in the open epoch. */
    std::vector<u64> takeRedirtiedPages();
    /// @}

    /** Resident (frame-backed) page count. */
    u64 residentPages() const;

    /**
     * Read-only view of one page-table entry for the checking layer
     * (src/check): enough state to recompute frame ownership and
     * swap-slot refcounts from the page tables without walking (and
     * therefore without perturbing LRU state or servicing faults).
     */
    struct PteView
    {
        u64 va = 0;
        u32 prot = PROT_NONE;
        bool cow = false;
        bool shared = false;
        bool swapped = false;
        u64 swapSlot = 0;
        /** Page may hold tagged capabilities (see the epoch-sweep
         *  section above); the oracle audits it against the frame's
         *  tags and the slot's tag metadata (rule 9). */
        bool capDirty = false;
        /** Epoch id of the last sweep that scanned this page (test and
         *  oracle observability for the epoch scheduler). */
        u64 sweptEpoch = 0;
        /** Backing frame; null when not resident. */
        const Frame *frame = nullptr;
        /** shared_ptr owner count of the frame (0 when not resident). */
        long frameRefs = 0;
    };

    /** Which entries a page-table visit hands over. */
    enum class PteSet
    {
        All,
        /** Entries holding a frame or a swap slot: the only ones that
         *  name frames, slots or tagged capabilities. */
        Content,
    };

    /**
     * One VA-ascending pass over the page table without touching walk
     * state: @p on_pte sees each entry's PteView, then @p on_cap sees
     * that page's tagged capabilities as (va, cap), granule order.  The
     * checking layer audits PTEs and memory capabilities in this one
     * walk, over PteSet::Content (frameless, slotless entries carry
     * nothing it checks).
     */
    template <PteSet Which = PteSet::All, typename OnPte, typename OnCap>
    void forEachPteWithCaps(OnPte &&on_pte, OnCap &&on_cap) const;

    /** Visit every page-table entry without touching walk state. */
    template <typename Fn>
    void
    forEachPte(Fn &&fn) const
    {
        forEachPteWithCaps(fn, [](u64, const Capability &) {});
    }

    /** Visit every tagged capability resident in this space. */
    template <typename Fn>
    void
    forEachTaggedCap(Fn &&fn) const
    {
        forEachPteWithCaps<PteSet::Content>([](const PteView &) {}, fn);
    }

    /** Page-table entries (mapped pages, resident or not). */
    u64 mappedPages() const;

    /** Pages per leaf block of a region's page table. */
    static constexpr u64 pteBlockPages = 64;

    /** PTE entries the host holds: pteBlockPages per allocated leaf
     *  block.  It follows what the pages hold, not mappedPages(). */
    u64 allocatedPteEntries() const;

    /**
     * Abstract-capability containment invariant (paper section 3:
     * "each principal's abstract capability has a disjoint root"):
     * every tagged capability in this space must be dominated by the
     * rederivation root in bounds and permissions.  Returns the number
     * of violations (0 in a correct system).
     */
    u64 verifyCapContainment() const;

    /** @name Software-TLB interface (MemAccess)
     * resolvePage services one page like walk() (demand-zero, COW,
     * swap-in) and reports the state a TLB entry needs.  Listeners are
     * notified whenever a translation this space handed out may have
     * become stale: unmap, protect, swap-out, installFrame, forkCopy,
     * COW resolution, and revocation sweeps.
     */
    /// @{
    bool resolvePage(u64 va, bool for_write, PageView *out,
                     bool cap_store = false);
    void addTlbListener(MemAccess *l);
    void removeTlbListener(MemAccess *l);
    /** A store reached an executable page: decoded-instruction caches
     *  must be flushed even though translations stay valid. */
    void notifyCodeWrite() const;
    /// @}

  private:
    /** Checkpoint/restore rebuilds the page table entry by entry. */
    friend struct snap::Access;

    struct Pte
    {
        FrameRef frame;
        u64 swapSlot = 0;
        u32 prot = PROT_NONE;
        bool cow = false;
        bool shared = false;
        bool swapped = false;
        /** Sticky "may hold tagged capabilities" bit (PGA_CAPSTORE):
         *  set on every capability store, survives swap-out alongside
         *  the tag metadata, cleared only by a sweep that proves the
         *  page clean. */
        bool capDirty = false;
        /** Walk-clock stamp of the last touch; drives LRU eviction. */
        u64 lastUse = 0;
        /** Epoch id of the last sweep that scanned this page. */
        u64 sweptEpoch = 0;
        /** Epoch id this page is currently queued under.  A cap store
         *  while an epoch is open (re-)queues the page unless it is
         *  already queued in that epoch — which also catches pages
         *  mapped fresh mid-epoch, never queued at open. */
        u64 queuedEpoch = 0;
    };

    /** One leaf of a region's page table: the PTEs of pteBlockPages
     *  consecutive pages. */
    struct PteBlock
    {
        std::array<Pte, pteBlockPages> ptes;
    };

    /**
     * One mapping and its page-table entries, as a two-level table:
     * blocks[b] holds the PTEs of pages [b, b + 1) * pteBlockPages of the
     * mapping, or is null while every one of them is the default PTE
     * ({prot = map.prot, shared = map.shared}, everything else zero).
     * A block is allocated on first use: when one of its pages gains
     * content (walk, installFrame), when a partial protect gives its
     * pages a protection other than map.prot, when a sweep stamps a
     * frameless page, or when a restore reads a record that is not the
     * default.  Only a whole-region protect changes map.prot, and it
     * rewrites every present block too, so a missing block stays
     * default.  Blocks never move: a Pte pointer stays valid for the
     * life of its region.  Host storage follows what the pages hold:
     * an 8 MiB stack with three touched pages is 32 pointers and one
     * block, not 2048 PTEs.
     */
    struct Region
    {
        Mapping map;
        std::vector<std::unique_ptr<PteBlock>> blocks;
        /**
         * Index window [contentLo, contentHi) holding every PTE with a
         * frame or a swap slot.  A PTE gains content only on first touch
         * (walk), installFrame or restore — each calls noteContent — and
         * keeps it until unmapped (swap-out and swap-in trade one for
         * the other), so walks that look only at content scan just this
         * window: a few pages of an 8 MiB stack, not all 2048.
         */
        u64 contentLo = 0;
        u64 contentHi = 0;

        Region() = default;
        Region(Region &&) = default;
        Region &operator=(Region &&) = default;
        /** Deep copy of the blocks that exist (fork). */
        Region(const Region &other);
        Region &operator=(const Region &) = delete;

        u64 pages() const { return map.len / pageSize; }

        /** The PTE every page of a missing block holds. */
        Pte
        defaultPte() const
        {
            Pte pte;
            pte.prot = map.prot;
            pte.shared = map.shared;
            return pte;
        }

        /** True when @p pte is the default PTE (restore keeps no block
         *  for it). */
        bool isDefault(const Pte &pte) const;

        PteBlock *block(u64 b) { return blocks[b].get(); }
        const PteBlock *block(u64 b) const { return blocks[b].get(); }

        /** PTE of page @p idx, or nullptr while its block is missing
         *  (the page is then the default PTE). */
        Pte *
        find(u64 idx)
        {
            PteBlock *b = block(idx / pteBlockPages);
            return b ? &b->ptes[idx % pteBlockPages] : nullptr;
        }
        const Pte *
        find(u64 idx) const
        {
            const PteBlock *b = block(idx / pteBlockPages);
            return b ? &b->ptes[idx % pteBlockPages] : nullptr;
        }

        /** Leaf block @p b, allocated (all default) on first use. */
        PteBlock &
        blockAt(u64 b)
        {
            if (!blocks[b])
                blocks[b] = newBlock();
            return *blocks[b];
        }

        /** PTE of page @p idx, allocating its block on first use. */
        Pte &
        at(u64 idx)
        {
            return blockAt(idx / pteBlockPages).ptes[idx % pteBlockPages];
        }

        /** A block of default PTEs. */
        std::unique_ptr<PteBlock> newBlock() const;

        /** Size the (empty) table for map.len. */
        void
        resetTable()
        {
            blocks.clear();
            blocks.resize((pages() + pteBlockPages - 1) / pteBlockPages);
        }

        /** Move the PTEs of pages [@p first, pages()) into a fresh table
         *  for the region that will hold them (an unmap split), re-chunked
         *  so that page @p first starts a block.  Only blocks that exist
         *  are read; a destination block stays missing when both of its
         *  sources are. */
        std::vector<std::unique_ptr<PteBlock>> takeTail(u64 first);

        /** Keep only pages [0, @p n): blocks past them are freed, and the
         *  entries past @p n in the last kept block drop their frames. */
        void truncate(u64 n);

        void
        noteContent(u64 idx)
        {
            if (contentLo == contentHi) {
                contentLo = idx;
                contentHi = idx + 1;
            } else {
                contentLo = std::min(contentLo, idx);
                contentHi = std::max(contentHi, idx + 1);
            }
        }

        /** Visit the PTEs holding a frame or a swap slot among pages
         *  [@p lo, @p hi) as (page index, pte), index ascending. */
        template <typename Self, typename Fn>
        static void
        eachContent(Self &self, u64 lo, u64 hi, Fn &&fn)
        {
            lo = std::max(lo, self.contentLo);
            hi = std::min(hi, self.contentHi);
            for (u64 i = lo; i < hi;) {
                u64 stop =
                    std::min(hi, (i / pteBlockPages + 1) * pteBlockPages);
                if (auto *b = self.block(i / pteBlockPages)) {
                    for (; i < stop; ++i) {
                        auto &pte = b->ptes[i % pteBlockPages];
                        if (pte.frame || pte.swapped)
                            fn(i, pte);
                    }
                }
                i = stop;
            }
        }
    };

    /** Set @p to's content window to @p from's, restricted to PTE
     *  indices [lo, hi) and rebased to @p lo (unmap splits). */
    static void clipContent(Region &to, const Region &from, u64 lo,
                            u64 hi);

    /** Region containing @p va, or nullptr. */
    const Region *findRegion(u64 va) const;
    Region *
    findRegion(u64 va)
    {
        return const_cast<Region *>(std::as_const(*this).findRegion(va));
    }

    /** PTE of the page containing @p va, or nullptr when unmapped or
     *  when its block is missing (the page is then the default PTE:
     *  no frame, no slot). */
    Pte *
    findPte(u64 va)
    {
        Region *r = findRegion(va);
        return r ? r->find((pageTrunc(va) - r->map.start) / pageSize)
                 : nullptr;
    }

    /**
     * Visit every PTE as (page va, pte), VA ascending.  The pages of a
     * missing block are handed a synthesized default PTE, so @p fn must
     * not modify what it is given.
     */
    template <typename Self, typename Fn>
    static void
    eachPte(Self &self, Fn &&fn)
    {
        for (auto &[start, region] : self.regions) {
            Pte def = region.defaultPte();
            u64 n = region.pages();
            for (u64 b = 0; b * pteBlockPages < n; ++b) {
                auto *blk = region.block(b);
                u64 stop = std::min(n, (b + 1) * pteBlockPages);
                for (u64 i = b * pteBlockPages; i < stop; ++i)
                    fn(start + i * pageSize,
                       blk ? blk->ptes[i % pteBlockPages] : def);
            }
        }
    }

    /** Visit every PTE holding a frame or a swap slot, VA ascending. */
    template <typename Self, typename Fn>
    static void
    eachContentPte(Self &self, Fn &&fn)
    {
        for (auto &[start, region] : self.regions) {
            Region::eachContent(region, 0, region.pages(),
                                [&](u64 i, auto &pte) {
                                    fn(start + i * pageSize, pte);
                                });
        }
    }

    /**
     * Resolve the page containing @p va for the given access, servicing
     * demand-zero, COW, and swap-in faults.  Returns nullptr when
     * unmapped or protection denies the access.  The PTE pointer stays
     * valid for the life of its region: leaf blocks never move.
     */
    Pte *walk(u64 va, bool for_write);

    /** Capability-store choke point: mark the page cap-dirty and, when
     *  it was already swept in the open epoch, queue it for re-scan. */
    void markCapStore(Pte &pte, u64 page_va);

    u64 findFree(u64 hint, u64 len) const;

    /** @name TLB shoot-down helpers (const: fork mutates the parent's
     *  COW state through const_cast and must still notify). */
    /// @{
    void notifyInvalidatePage(u64 page_va) const;
    void notifyInvalidateRange(u64 start, u64 len) const;
    void notifyInvalidateAll() const;
    /// @}

    PhysMem &phys;
    SwapDevice &swap;
    u64 _principal;
    u64 aslrSlide = 0;
    compress::CapFormat fmt;
    Capability root;
    /** Disjoint mappings keyed by start, each with its page table. */
    std::map<u64, Region> regions;
    /** Deterministic logical clock, bumped per successful walk. */
    u64 useClock = 0;
    /** Cause of the most recent walk failure. */
    CapFault walkFault = CapFault::PageFault;
    /** Nonzero while a revocation epoch is open against this space. */
    u64 activeSweepEpoch = 0;
    /** Pages cap-stored after their scan in the open epoch. */
    std::vector<u64> redirtied;
    /** MemAccess objects caching translations of this space. */
    std::vector<MemAccess *> listeners;
};

template <AddressSpace::PteSet Which, typename OnPte, typename OnCap>
void
AddressSpace::forEachPteWithCaps(OnPte &&on_pte, OnCap &&on_cap) const
{
    auto visit = [&](u64 va, const Pte &pte) {
        PteView v;
        v.va = va;
        v.prot = pte.prot;
        v.cow = pte.cow;
        v.shared = pte.shared;
        v.swapped = pte.swapped;
        v.swapSlot = pte.swapped ? pte.swapSlot : 0;
        v.capDirty = pte.capDirty;
        v.sweptEpoch = pte.sweptEpoch;
        v.frame = pte.frame.get();
        v.frameRefs = pte.frame ? pte.frame.use_count() : 0;
        on_pte(v);
        if (pte.frame) {
            pte.frame->forEachTagged([&](u64 off, const Capability &cap) {
                on_cap(va + off, cap);
            });
        }
    };
    if constexpr (Which == PteSet::Content)
        eachContentPte(*this, visit);
    else
        eachPte(*this, visit);
}

} // namespace cheri

#endif // CHERI_MEM_VM_H
