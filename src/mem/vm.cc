#include "mem/vm.h"

#include <algorithm>

#include "mem/access.h"
#include "os/panic.h"

namespace cheri
{

AddressSpace::AddressSpace(PhysMem &phys, SwapDevice &swap, u64 principal,
                           compress::CapFormat fmt, u64 aslr_seed)
    : phys(phys), swap(swap), _principal(principal), fmt(fmt)
{
    if (aslr_seed != 0) {
        // A page-granular slide applied to non-fixed placements.
        aslrSlide =
            ((aslr_seed * 0x9E3779B97F4A7C15ull) >> 40) % 4096 * pageSize;
    }
    // Mint the principal's root: the kernel-narrowed userspace
    // capability from which all of this process's pointers descend.
    Capability r = Capability::root(fmt).setAddress(userBase);
    Result<Capability> bounded = r.setBounds(userTop - userBase);
    CHERI_KASSERT(bounded.ok(), "user root bounds representable");
    Result<Capability> no_sysregs =
        bounded.value().andPerms(permsAll & ~PERM_ACCESS_SYS_REGS);
    CHERI_KASSERT(no_sysregs.ok(), "user root perms monotone");
    root = no_sysregs.value();
}

AddressSpace::~AddressSpace()
{
    // MemAccess objects may outlive the space (execve swaps spaces
    // under the process); make sure none keeps a dangling pointer.
    for (MemAccess *l : listeners)
        l->detach();
    // Swapped-out pages hold device slots the frame destructors know
    // nothing about; release them or every execve/exit leaks swap.
    eachContentPte(*this, [&](u64, const Pte &pte) {
        if (pte.swapped)
            swap.discard(pte.swapSlot);
    });
}

void
AddressSpace::addTlbListener(MemAccess *l)
{
    listeners.push_back(l);
}

void
AddressSpace::removeTlbListener(MemAccess *l)
{
    listeners.erase(
        std::remove(listeners.begin(), listeners.end(), l),
        listeners.end());
}

void
AddressSpace::notifyInvalidatePage(u64 page_va) const
{
    for (MemAccess *l : listeners)
        l->invalidatePage(page_va);
}

void
AddressSpace::notifyInvalidateRange(u64 start, u64 len) const
{
    for (MemAccess *l : listeners)
        l->invalidateRange(start, len);
}

void
AddressSpace::notifyInvalidateAll() const
{
    for (MemAccess *l : listeners)
        l->invalidateAll();
}

void
AddressSpace::notifyCodeWrite() const
{
    for (MemAccess *l : listeners)
        l->noteCodeWrite();
}

bool
AddressSpace::resolvePage(u64 va, bool for_write, PageView *out,
                          bool cap_store)
{
    Pte *pte = walk(va, for_write);
    if (!pte)
        return false;
    if (cap_store)
        markCapStore(*pte, pageTrunc(va));
    out->frame = pte->frame.get();
    out->prot = pte->prot;
    out->cow = pte->cow;
    out->shared = pte->shared;
    out->capDirty = pte->capDirty;
    out->sweepEpochOpen = activeSweepEpoch != 0;
    return true;
}

void
AddressSpace::markCapStore(Pte &pte, u64 page_va)
{
    pte.capDirty = true;
    if (activeSweepEpoch != 0 && pte.queuedEpoch != activeSweepEpoch) {
        // The open epoch has no pending visit to this page — either it
        // was already scanned (its proof is now stale) or it was mapped
        // after the worklist was built; the scheduler must (re)visit it
        // before closing.
        pte.queuedEpoch = activeSweepEpoch;
        redirtied.push_back(page_va);
    }
}

AddressSpace::Region::Region(const Region &other)
    : map(other.map), blocks(other.blocks.size()),
      contentLo(other.contentLo), contentHi(other.contentHi)
{
    for (u64 b = 0; b < blocks.size(); ++b) {
        if (other.blocks[b])
            blocks[b] = std::make_unique<PteBlock>(*other.blocks[b]);
    }
}

bool
AddressSpace::Region::isDefault(const Pte &pte) const
{
    return !pte.frame && pte.swapSlot == 0 && pte.prot == map.prot &&
           !pte.cow && pte.shared == map.shared && !pte.swapped &&
           !pte.capDirty && pte.lastUse == 0 && pte.sweptEpoch == 0 &&
           pte.queuedEpoch == 0;
}

std::unique_ptr<AddressSpace::PteBlock>
AddressSpace::Region::newBlock() const
{
    // Set the two fields that differ from a constructed Pte rather than
    // copy-assign whole entries (and their null FrameRefs).
    auto b = std::make_unique<PteBlock>();
    for (Pte &pte : b->ptes) {
        pte.prot = map.prot;
        pte.shared = map.shared;
    }
    return b;
}

std::vector<std::unique_ptr<AddressSpace::PteBlock>>
AddressSpace::Region::takeTail(u64 first)
{
    u64 n = pages();
    std::vector<std::unique_ptr<PteBlock>> out(
        (n - first + pteBlockPages - 1) / pteBlockPages);
    if (first % pteBlockPages == 0) {
        // Block-aligned split: the blocks change hands whole.
        std::move(blocks.begin() + first / pteBlockPages, blocks.end(),
                  out.begin());
        return out;
    }
    for (u64 b = 0; b < out.size(); ++b) {
        // Destination block b takes source pages [src, src + block),
        // which straddle two source blocks.
        u64 src = first + b * pteBlockPages;
        u64 stop = std::min(n, src + pteBlockPages);
        u64 sb = src / pteBlockPages;
        bool spills = stop > (sb + 1) * pteBlockPages;
        if (!block(sb) && !(spills && block(sb + 1)))
            continue;
        out[b] = newBlock();
        for (u64 i = src; i < stop; ++i) {
            if (Pte *pte = find(i))
                out[b]->ptes[i - src] = std::move(*pte);
        }
    }
    return out;
}

void
AddressSpace::Region::truncate(u64 n)
{
    u64 keep = (n + pteBlockPages - 1) / pteBlockPages;
    blocks.resize(keep);
    if (n % pteBlockPages != 0 && blocks.back()) {
        for (u64 i = n % pteBlockPages; i < pteBlockPages; ++i)
            blocks.back()->ptes[i] = Pte{};
    }
}

void
AddressSpace::clipContent(Region &to, const Region &from, u64 lo, u64 hi)
{
    u64 clo = std::max(from.contentLo, lo);
    u64 chi = std::min(from.contentHi, hi);
    to.contentLo = clo < chi ? clo - lo : 0;
    to.contentHi = clo < chi ? chi - lo : 0;
}

u64
AddressSpace::findFree(u64 hint, u64 len) const
{
    u64 start = hint ? pageTrunc(hint) + aslrSlide
                     : u64{0x40000000} + aslrSlide;
    if (start < userBase)
        start = userBase;
    while (start + len <= userTop) {
        // Find the first mapping ending after `start`.
        auto it = regions.upper_bound(start);
        if (it != regions.begin()) {
            auto prev = std::prev(it);
            if (prev->second.map.end() > start) {
                start = pageRound(prev->second.map.end());
                continue;
            }
        }
        if (it == regions.end() || start + len <= it->second.map.start)
            return start;
        start = pageRound(it->second.map.end());
    }
    return 0;
}

u64
AddressSpace::map(u64 addr, u64 len, u32 prot, MappingKind kind, bool fixed,
                  bool shared, const std::string &name, bool force_replace)
{
    if (len == 0)
        return 0;
    len = pageRound(len);
    u64 start;
    if (fixed) {
        start = pageTrunc(addr);
        if (start < userBase || start + len > userTop)
            return 0;
        if (rangeOccupied(start, len)) {
            if (!force_replace)
                return 0;
            unmap(start, len);
        }
    } else {
        // ASLR: a per-mapping jitter gap so *relative* placements (and
        // therefore cache conflict patterns) differ run to run.
        u64 jitter = 0;
        if (aslrSlide != 0) {
            u64 h = (aslrSlide + regions.size() + 1) *
                    0x9E3779B97F4A7C15ull;
            jitter = ((h >> 33) % 16) * pageSize;
        }
        start = findFree(addr, len + jitter);
        if (start == 0)
            return 0;
        start += jitter;
    }
    Region &r = regions[start];
    r.map.start = start;
    r.map.len = len;
    r.map.prot = prot;
    r.map.kind = kind;
    r.map.shared = shared;
    r.map.name = name;
    // Every page starts as the default PTE, which a missing leaf block
    // stands for; blocks and frames come on first use.
    r.resetTable();
    return start;
}

bool
AddressSpace::unmap(u64 start, u64 len)
{
    start = pageTrunc(start);
    len = pageRound(len);
    u64 end = start + len;
    // Shoot down cached translations before the frames are released.
    notifyInvalidateRange(start, len);
    bool any = false;
    // Split or drop overlapping regions: the part below `start` keeps its
    // node, the part at or above `end` moves to a new one.
    auto it = regions.upper_bound(start);
    if (it != regions.begin() && std::prev(it)->second.map.end() > start)
        --it;
    while (it != regions.end() && it->second.map.start < end) {
        any = true;
        Region &r = it->second;
        u64 mstart = r.map.start;
        u64 mend = r.map.end();
        u64 lo = (std::max(start, mstart) - mstart) / pageSize;
        u64 hi = (std::min(end, mend) - mstart) / pageSize;
        // A swapped-out page owns a device slot; munmap must release
        // it or the slot leaks for the lifetime of the system.
        Region::eachContent(r, lo, hi, [&](u64, const Pte &pte) {
            if (pte.swapped)
                swap.discard(pte.swapSlot);
        });
        if (mend > end) {
            Region right;
            right.map = r.map;
            right.map.start = end;
            right.map.len = mend - end;
            right.blocks = r.takeTail(hi);
            clipContent(right, r, hi, r.pages());
            regions.emplace_hint(std::next(it), end, std::move(right));
        }
        if (mstart < start) {
            r.map.len = start - mstart;
            r.truncate(lo);
            clipContent(r, r, 0, lo);
            ++it;
        } else {
            it = regions.erase(it);
        }
    }
    return any;
}

bool
AddressSpace::protect(u64 start, u64 len, u32 prot)
{
    start = pageTrunc(start);
    len = pageRound(len);
    u64 end = start + len;
    // mprotect is atomic: validate the whole range before touching any
    // PTE, so a hole mid-range leaves every page exactly as it was.
    for (u64 va = start; va < end;) {
        const Region *r = findRegion(va);
        if (!r)
            return false;
        va = r->map.end();
    }
    // Cached translations embed the old protection; drop them first.
    notifyInvalidateRange(start, len);
    for (auto it = regions.lower_bound(start);
         it != regions.end() && it->second.map.start < end; ++it) {
        // Mapping records change only when wholly covered; pages keep
        // per-page protection either way.  A wholly covered region's
        // missing blocks follow map.prot, the default PTE's protection.
        if (it->second.map.end() <= end)
            it->second.map.prot = prot;
    }
    for (u64 va = start; va < end;) {
        Region &r = *findRegion(va);
        u64 stop = std::min(end, r.map.end());
        u64 hi = (stop - r.map.start) / pageSize;
        for (u64 i = (va - r.map.start) / pageSize; i < hi;) {
            // A missing block already reads as map.prot; any other
            // protection needs the block.
            u64 b = i / pteBlockPages;
            u64 next = std::min(hi, (b + 1) * pteBlockPages);
            if (r.block(b) || prot != r.map.prot) {
                PteBlock &blk = r.blockAt(b);
                for (; i < next; ++i)
                    blk.ptes[i % pteBlockPages].prot = prot;
            }
            i = next;
        }
        va = stop;
    }
    return true;
}

const AddressSpace::Region *
AddressSpace::findRegion(u64 va) const
{
    auto it = regions.upper_bound(va);
    if (it == regions.begin())
        return nullptr;
    --it;
    if (va < it->second.map.end())
        return &it->second;
    return nullptr;
}

const Mapping *
AddressSpace::findMapping(u64 va) const
{
    const Region *r = findRegion(va);
    return r ? &r->map : nullptr;
}

bool
AddressSpace::rangeOccupied(u64 start, u64 len) const
{
    u64 end = start + len;
    for (const auto &[mstart, r] : regions) {
        if (r.map.start < end && r.map.end() > start)
            return true;
    }
    return false;
}

void
AddressSpace::forEachMapping(
    const std::function<void(const Mapping &)> &fn) const
{
    for (const auto &[start, r] : regions)
        fn(r.map);
}

u64
AddressSpace::representablePadding(u64 len) const
{
    return compress::representableLength(pageRound(len), fmt);
}

Capability
AddressSpace::capForRange(u64 start, u64 len, u32 prot,
                          bool with_vmmap) const
{
    u32 perms = PERM_GLOBAL;
    if (prot & PROT_READ)
        perms |= PERM_LOAD | PERM_LOAD_CAP;
    if (prot & PROT_WRITE)
        perms |= PERM_STORE | PERM_STORE_CAP | PERM_STORE_LOCAL_CAP;
    if (prot & PROT_EXEC)
        perms |= PERM_EXECUTE;
    if (with_vmmap)
        perms |= PERM_SW_VMMAP;
    Result<Capability> r =
        root.setAddress(start).setBounds(pageRound(len));
    CHERI_KASSERT(r.ok(), "kernel minted capability outside user root");
    Result<Capability> p = r.value().andPerms(perms);
    CHERI_KASSERT(p.ok(), "kernel-minted perms monotone");
    return p.value();
}

AddressSpace::Pte *
AddressSpace::walk(u64 va, bool for_write)
{
    // Any failure below that doesn't refine the cause is a plain page
    // fault (unmapped / protection).
    walkFault = CapFault::PageFault;
    if (va < userBase || va >= userTop)
        return nullptr;
    Region *r = findRegion(va);
    if (!r)
        return nullptr;
    u64 idx = (pageTrunc(va) - r->map.start) / pageSize;
    Pte *found = r->find(idx);
    u32 need = for_write ? PROT_WRITE : PROT_READ;
    if (!((found ? found->prot : r->map.prot) & need))
        return nullptr;
    // A missing block is all default PTEs: the page gains content below.
    Pte &pte = found ? *found : r->at(idx);
    // Allocation below may reenter this space through the kernel's
    // reclaim (MemEvents::reclaim).  That is safe: the pages being
    // serviced here are never evictable then (frame still null, or
    // use_count > 1 for a COW original), and reclaim only mutates Pte
    // fields — it never maps or unmaps, so `r` and `pte` stay where
    // they are.
    if (pte.swapped) {
        // Swap-in: restore bytes and rederive capabilities from this
        // principal's root.
        FrameRef fresh = phys.allocFrame(this);
        if (!fresh) {
            walkFault = CapFault::MemoryExhausted;
            return nullptr;
        }
        CapFault swapFault = CapFault::SwapInFailure;
        if (!swap.swapIn(pte.swapSlot, *fresh, root, &swapFault)) {
            // The slot is retained; the access can be retried (after
            // an injected metadata corruption, minus the granule the
            // machine check consumed).
            walkFault = swapFault;
            return nullptr;
        }
        pte.frame = std::move(fresh);
        pte.swapped = false;
    }
    if (!pte.frame) {
        pte.frame = phys.allocFrame(this);
        if (!pte.frame) {
            walkFault = CapFault::MemoryExhausted;
            return nullptr;
        }
        r->noteContent(idx);
        // File-backed mappings fill from the file; anonymous ones are
        // demand-zero.
        const Mapping &m = r->map;
        if (m.backing) {
            std::array<u8, pageSize> buf{};
            u64 file_off = m.backingOffset + (pageTrunc(va) - m.start);
            (*m.backing)(file_off, buf.data(), pageSize);
            pte.frame->write(0, buf.data(), pageSize);
        }
    }
    if (for_write && pte.cow) {
        if (pte.frame.use_count() > 1) {
            FrameRef copy = phys.allocFrame(this);
            if (!copy) {
                walkFault = CapFault::MemoryExhausted;
                return nullptr;
            }
            copy->copyFrom(*pte.frame); // tags preserved across COW
            pte.frame = std::move(copy);
            // The page changed frames: cached read translations still
            // point at the sibling's copy.
            notifyInvalidatePage(pageTrunc(va));
        }
        pte.cow = false;
    }
    pte.lastUse = ++useClock;
    return &pte;
}

CapCheck
AddressSpace::readBytes(u64 va, void *buf, u64 len)
{
    u8 *out = static_cast<u8 *>(buf);
    while (len > 0) {
        Pte *pte = walk(va, false);
        if (!pte)
            return walkFault;
        u64 off = va & pageMask;
        u64 chunk = std::min(len, pageSize - off);
        pte->frame->read(off, out, chunk);
        va += chunk;
        out += chunk;
        len -= chunk;
    }
    return std::nullopt;
}

CapCheck
AddressSpace::writeBytes(u64 va, const void *buf, u64 len)
{
    const u8 *in = static_cast<const u8 *>(buf);
    while (len > 0) {
        Pte *pte = walk(va, true);
        if (!pte)
            return walkFault;
        if (pte->prot & PROT_EXEC)
            notifyCodeWrite();
        u64 off = va & pageMask;
        u64 chunk = std::min(len, pageSize - off);
        pte->frame->write(off, in, chunk);
        va += chunk;
        in += chunk;
        len -= chunk;
    }
    return std::nullopt;
}

Result<Capability>
AddressSpace::readCap(u64 va)
{
    if (va % capAlign != 0)
        return CapFault::AlignmentViolation;
    Pte *pte = walk(va, false);
    if (!pte)
        return walkFault;
    u64 off = va & pageMask;
    if (pte->frame->tagAt(off) &&
        phys.injectCapLoadCorruption(*pte->frame, off, va))
        return CapFault::MachineCheck;
    return pte->frame->readCap(off);
}

CapCheck
AddressSpace::writeCap(u64 va, const Capability &cap)
{
    if (va % capAlign != 0)
        return CapFault::AlignmentViolation;
    Pte *pte = walk(va, true);
    if (!pte)
        return walkFault;
    if (pte->prot & PROT_EXEC)
        notifyCodeWrite();
    markCapStore(*pte, pageTrunc(va));
    pte->frame->writeCap(va & pageMask, cap);
    return std::nullopt;
}

void
AddressSpace::clearTagAt(u64 va)
{
    Pte *pte = walk(va, true);
    if (pte)
        pte->frame->clearTagAt(va & pageMask);
}

std::unique_ptr<AddressSpace>
AddressSpace::forkCopy(u64 new_principal) const
{
    auto child =
        std::make_unique<AddressSpace>(phys, swap, new_principal, fmt);
    eachContentPte(*this, [&](u64, const Pte &pte) {
        // Private resident pages become COW in both spaces (we mutate
        // through const_cast here because fork logically modifies both
        // spaces); the copy below carries the flag into the child.
        if (!pte.shared && pte.frame)
            const_cast<Pte &>(pte).cow = true;
        // A swapped-out page's slot is now referenced by both spaces;
        // without the extra reference the first swap-in (or unmap/exit
        // discard) would free the sibling's only copy of the page.
        if (pte.swapped)
            swap.retain(pte.swapSlot);
    });
    for (const auto &[start, region] : regions)
        child->regions.emplace_hint(child->regions.end(), start, region);
    // The parent's private pages just became COW: any cached writable
    // translation would let a store dodge the copy and corrupt the
    // child's view of the shared frame.
    notifyInvalidateAll();
    return child;
}

bool
AddressSpace::setBacking(u64 start, u64 len, BackingReader reader,
                         BackingWriter writer, u64 file_offset)
{
    auto it = regions.find(pageTrunc(start));
    if (it == regions.end() || it->second.map.len < len)
        return false;
    Mapping &m = it->second.map;
    m.backing = std::make_shared<BackingReader>(std::move(reader));
    if (writer)
        m.backingWriter = std::make_shared<BackingWriter>(std::move(writer));
    m.backingOffset = file_offset;
    return true;
}

u64
AddressSpace::syncResident(u64 start, u64 len)
{
    const Mapping *m = findMapping(start);
    if (!m || !m->backingWriter)
        return 0;
    u64 synced = 0;
    for (u64 va = pageTrunc(start); va < start + len; va += pageSize) {
        const Pte *pte = findPte(va);
        if (!pte || !pte->frame)
            continue;
        u64 file_off = m->backingOffset + (va - m->start);
        (*m->backingWriter)(file_off, pte->frame->bytes().data(), pageSize);
        ++synced;
    }
    return synced;
}

bool
AddressSpace::installFrame(u64 va, FrameRef frame)
{
    Region *r = findRegion(va);
    if (!r)
        return false;
    u64 idx = (pageTrunc(va) - r->map.start) / pageSize;
    Pte *pte = &r->at(idx);
    r->noteContent(idx);
    notifyInvalidatePage(pageTrunc(va));
    // The incoming shared frame replaces whatever backed the page; a
    // swapped-out original still owns a device slot that must go too.
    if (pte->swapped)
        swap.discard(pte->swapSlot);
    pte->frame = std::move(frame);
    pte->shared = true;
    pte->cow = false;
    pte->swapped = false;
    // The incoming frame may already carry capabilities stored through
    // another space's mapping, and future sibling stores are invisible
    // to this page table: conservatively (and permanently) cap-dirty.
    // markCapStore also queues the page when an epoch is open — a
    // frame attached mid-epoch must be scanned before the close.
    markCapStore(*pte, pageTrunc(va));
    return true;
}

bool
AddressSpace::swapOutPage(u64 va)
{
    Pte *found = findPte(va);
    if (!found || !found->frame || found->shared)
        return false;
    Pte &pte = *found;
    if (pte.frame.use_count() > 1)
        return false; // still aliased by a COW sibling; keep resident
    u64 slot = swap.swapOut(*pte.frame);
    if (slot == SwapDevice::invalidSlot)
        return false; // device full or injected failure: stay resident
    // Invalidate before the frame dies: TLBs hold raw Frame pointers
    // without a reference.
    notifyInvalidatePage(pageTrunc(va));
    pte.swapSlot = slot;
    pte.frame.reset();
    pte.swapped = true;
    return true;
}

std::vector<u64>
AddressSpace::evictionOrder(u64 max_pages) const
{
    // Least-recently-used first; the walk clock is deterministic, and
    // VA breaks ties, so the order is reproducible across runs.
    std::vector<std::pair<u64, u64>> victims; // (lastUse, va)
    eachContentPte(*this, [&](u64 va, const Pte &pte) {
        if (pte.frame && !pte.shared && pte.frame.use_count() == 1)
            victims.emplace_back(pte.lastUse, va);
    });
    std::sort(victims.begin(), victims.end());
    if (victims.size() > max_pages)
        victims.resize(max_pages);
    std::vector<u64> order;
    order.reserve(victims.size());
    for (const auto &[use, va] : victims)
        order.push_back(va);
    return order;
}

u64
AddressSpace::swapOutResident(u64 max_pages)
{
    u64 evicted = 0;
    for (u64 va : evictionOrder(max_pages)) {
        Pte &pte = *findPte(va);
        u64 slot = swap.swapOut(*pte.frame);
        if (slot == SwapDevice::invalidSlot)
            break; // swap full: the caller escalates (OOM kill)
        notifyInvalidatePage(va);
        pte.swapSlot = slot;
        pte.frame.reset();
        pte.swapped = true;
        ++evicted;
    }
    return evicted;
}

u64
AddressSpace::releaseAll()
{
    notifyInvalidateAll();
    u64 freed = 0;
    eachContentPte(*this, [&](u64, const Pte &pte) {
        if (pte.swapped)
            swap.discard(pte.swapSlot);
        freed += pte.frame != nullptr;
    });
    regions.clear();
    return freed;
}

u64
AddressSpace::swappedPages() const
{
    u64 n = 0;
    eachContentPte(*this, [&](u64, const Pte &pte) { n += pte.swapped; });
    return n;
}

u64
AddressSpace::contentPages() const
{
    u64 n = 0;
    eachContentPte(*this, [&](u64, const Pte &) { ++n; });
    return n;
}

std::vector<u64>
AddressSpace::sweepWorklist(bool force_full) const
{
    // A cap-dirty page always has content (every choke point that sets
    // the bit holds a frame), so both lists come from the content PTEs.
    std::vector<u64> work;
    eachContentPte(*this, [&](u64 va, const Pte &pte) {
        if (force_full || pte.capDirty)
            work.push_back(va);
    });
    return work;
}

AddressSpace::PageSweep
AddressSpace::sweepPage(u64 va, u64 epoch_id,
                        const std::function<bool(const Capability &)> &pred)
{
    PageSweep r;
    Region *reg = findRegion(va);
    if (!reg) {
        // Unmapped since it was queued: nothing can survive there.
        r.provenClean = true;
        return r;
    }
    // The sweep stamps the page, so even a default PTE (a page
    // remapped since it was queued) gets its block.
    Pte &pte = reg->at((pageTrunc(va) - reg->map.start) / pageSize);
    if (pte.swapped) {
        // Swapped pages are scanned through their tag metadata without
        // paging them in; the device read is what can fail.
        u64 remaining = 0;
        if (!swap.sweepSlot(pte.swapSlot, pred, &r.revoked, &remaining)) {
            r.deviceFailed = true;
            return r;
        }
        r.granules = granulesPerPage;
        if (remaining == 0 && !pte.shared) {
            pte.capDirty = false;
            r.provenClean = true;
        }
    } else if (pte.frame) {
        // Collect first: clearing mutates the tag bitmap under us.
        std::vector<u64> offs;
        pte.frame->forEachTagged([&](u64 off, const Capability &cap) {
            if (pred(cap))
                offs.push_back(off);
        });
        for (u64 off : offs)
            pte.frame->clearTagAt(off);
        r.revoked = offs.size();
        r.granules = granulesPerPage;
        if (pte.frame->taggedCount() == 0 && !pte.shared) {
            pte.capDirty = false;
            r.provenClean = true;
        }
        // The cached entry goes unconditionally: revoked tags must not
        // be served from a stale entry, a cap-store-permitted entry for
        // a page proven clean would let the next capability store dodge
        // the dirty bit, and a cached capWritable for a
        // scanned-but-still-dirty page would let a later cap store in
        // this epoch bypass the re-queue in markCapStore.
        notifyInvalidatePage(pageTrunc(va));
    } else {
        // Demand-zero page: trivially holds no capabilities.
        if (!pte.shared) {
            pte.capDirty = false;
            r.provenClean = true;
        }
    }
    pte.sweptEpoch = epoch_id;
    // The queued visit is satisfied; a later cap store in the same
    // epoch re-queues through markCapStore.
    pte.queuedEpoch = 0;
    return r;
}

AddressSpace::SharedSweep
AddressSpace::sweepSharedPagesForClose(
    u64 epoch_id, const std::function<bool(const Capability &)> &pred)
{
    SharedSweep total;
    eachContentPte(*this, [&](u64 va, const Pte &pte) {
        if (!pte.shared)
            return;
        // Shared pages are never swapped out (and restore rejects a
        // shared swapped page), so the device scan that could fail is
        // never reached and the close barrier cannot fail.
        PageSweep r = sweepPage(va, epoch_id, pred);
        ++total.pages;
        total.granules += r.granules;
        total.revoked += r.revoked;
    });
    return total;
}

std::vector<u64>
AddressSpace::beginSweepEpoch(u64 epoch_id, bool force_full)
{
    activeSweepEpoch = epoch_id;
    redirtied.clear();
    // Drop every cached translation: entries installed before the
    // epoch may carry capability-store permission, and the epoch's
    // soundness depends on every cap store taking the walk path (where
    // markCapStore records it) until the epoch closes.  resolvePage
    // reports sweepEpochOpen from here on, so refills stay cap-cold.
    notifyInvalidateAll();
    std::vector<u64> work = sweepWorklist(force_full);
    // Stamp the initial worklist so markCapStore knows these pages
    // already have a pending visit and need not be re-queued.
    for (u64 va : work)
        findPte(va)->queuedEpoch = epoch_id; // content: its block exists
    return work;
}

void
AddressSpace::endSweepEpoch()
{
    activeSweepEpoch = 0;
    redirtied.clear();
}

std::vector<u64>
AddressSpace::takeRedirtiedPages()
{
    std::vector<u64> out = std::move(redirtied);
    redirtied.clear();
    return out;
}

u64
AddressSpace::mappedPages() const
{
    u64 n = 0;
    for (const auto &[start, r] : regions)
        n += r.pages();
    return n;
}

u64
AddressSpace::allocatedPteEntries() const
{
    u64 n = 0;
    for (const auto &[start, r] : regions) {
        for (const auto &b : r.blocks)
            n += b ? pteBlockPages : 0;
    }
    return n;
}

u64
AddressSpace::residentPages() const
{
    u64 n = 0;
    eachContentPte(*this,
                   [&](u64, const Pte &pte) { n += pte.frame != nullptr; });
    return n;
}

u64
AddressSpace::verifyCapContainment() const
{
    u64 violations = 0;
    forEachTaggedCap([&](u64, const Capability &cap) {
        bool ok = cap.base() >= root.base() && cap.top() <= root.top() &&
                  (cap.perms() & ~root.perms()) == 0;
        violations += !ok;
    });
    return violations;
}

} // namespace cheri
