#include "mem/access.h"

#include <algorithm>
#include <cstring>

namespace cheri
{

MemAccess::MemAccess(AddressSpace &space) : as(&space)
{
    as->addTlbListener(this);
}

MemAccess::~MemAccess()
{
    if (as)
        as->removeTlbListener(this);
}

void
MemAccess::bind(AddressSpace &space)
{
    if (as == &space)
        return;
    if (as)
        as->removeTlbListener(this);
    as = &space;
    as->addTlbListener(this);
    invalidateAll();
}

void
MemAccess::detach()
{
    as = nullptr;
    dtlb.fill(Entry{});
    itlb.fill(Entry{});
    ++_fetchGen;
}

void
MemAccess::countFetchHit()
{
    ++st.fetchHits;
    if (counters)
        ++counters[TlbFetchHit];
    if (cost)
        cost->tlbAccess(true, true);
}

Frame *
MemAccess::missData(u64 page_va, bool for_write, bool cap_store)
{
    ++st.dataMisses;
    if (counters)
        ++counters[TlbDataMiss];
    if (cost)
        cost->tlbAccess(false, false);
    if (!as)
        return nullptr;
    PageView view;
    if (!as->resolvePage(page_va, for_write, &view, cap_store))
        return nullptr;
    Entry &e = dtlb[indexOf(page_va)];
    e.pageVa = page_va;
    e.frame = view.frame;
    e.prot = view.prot;
    e.writable = (view.prot & PROT_WRITE) != 0 && !view.cow;
    // No cached cap-store permission while a revocation epoch is open:
    // the epoch's re-queue logic (markCapStore) lives on the walk
    // path, and a fast-path cap store to a scanned-but-still-dirty
    // page would dodge it and survive the epoch.
    e.capWritable = e.writable && view.capDirty && !view.sweepEpochOpen;
    return view.frame;
}

Frame *
MemAccess::missFetch(u64 page_va)
{
    ++st.fetchMisses;
    if (counters)
        ++counters[TlbFetchMiss];
    if (cost)
        cost->tlbAccess(true, false);
    if (!as)
        return nullptr;
    PageView view;
    if (!as->resolvePage(page_va, false, &view))
        return nullptr;
    Entry &e = itlb[indexOf(page_va)];
    e.pageVa = page_va;
    e.frame = view.frame;
    e.prot = view.prot;
    e.writable = false; // the iTLB never authorizes stores
    return view.frame;
}

CapCheck
MemAccess::readSlow(u64 va, void *buf, u64 len)
{
    u8 *out = static_cast<u8 *>(buf);
    bool first = true;
    while (len > 0) {
        u64 page = pageTrunc(va);
        u64 off = va & pageMask;
        u64 chunk = std::min(len, pageSize - off);
        Entry &e = dtlb[indexOf(page)];
        Frame *f;
        if (e.pageVa == page && (e.prot & PROT_READ)) {
            f = e.frame;
            countDataHit();
        } else {
            f = missData(page, false);
            if (!f)
                return missFault();
        }
        // Corruption probe once per access, after translation: an
        // injected data-line flip machine-checks the load the way ECC
        // would, instead of returning silently wrong bytes.
        if (first && as && as->physMem().injectDataLoadCorruption(va))
            return CapFault::MachineCheck;
        first = false;
        f->read(off, out, chunk);
        va += chunk;
        out += chunk;
        len -= chunk;
    }
    return std::nullopt;
}

CapCheck
MemAccess::writeSlow(u64 va, const void *buf, u64 len)
{
    const u8 *in = static_cast<const u8 *>(buf);
    while (len > 0) {
        u64 page = pageTrunc(va);
        u64 off = va & pageMask;
        u64 chunk = std::min(len, pageSize - off);
        Entry &e = dtlb[indexOf(page)];
        Frame *f;
        bool exec;
        if (e.pageVa == page && e.writable) {
            f = e.frame;
            exec = (e.prot & PROT_EXEC) != 0;
            countDataHit();
        } else {
            f = missData(page, true);
            if (!f)
                return missFault();
            exec = (dtlb[indexOf(page)].prot & PROT_EXEC) != 0;
        }
        if (exec && as)
            as->notifyCodeWrite();
        f->write(off, in, chunk);
        va += chunk;
        in += chunk;
        len -= chunk;
    }
    return std::nullopt;
}

CapCheck
MemAccess::fetch(u64 va, void *buf, u64 len)
{
    u8 *out = static_cast<u8 *>(buf);
    while (len > 0) {
        u64 page = pageTrunc(va);
        u64 off = va & pageMask;
        u64 chunk = std::min(len, pageSize - off);
        Entry &e = itlb[indexOf(page)];
        Frame *f;
        if (e.pageVa == page && (e.prot & PROT_READ)) {
            f = e.frame;
            countFetchHit();
        } else {
            f = missFetch(page);
            if (!f)
                return missFault();
        }
        f->read(off, out, chunk);
        va += chunk;
        out += chunk;
        len -= chunk;
    }
    return std::nullopt;
}

Result<Capability>
MemAccess::readCapSlow(u64 va)
{
    if (va % capAlign != 0)
        return CapFault::AlignmentViolation;
    u64 page = pageTrunc(va);
    Entry &e = dtlb[indexOf(page)];
    Frame *f;
    if (e.pageVa == page && (e.prot & PROT_READ)) {
        f = e.frame;
        countDataHit();
    } else {
        f = missData(page, false);
        if (!f)
            return missFault();
    }
    // Tagged granules only: an untagged load has no tag to flip, and
    // probing it would burn injector events on non-capability traffic.
    u64 off = va & pageMask;
    if (f->tagAt(off) && as &&
        as->physMem().injectCapLoadCorruption(*f, off, va))
        return CapFault::MachineCheck;
    return f->readCap(off);
}

CapCheck
MemAccess::writeCap(u64 va, const Capability &cap)
{
    if (va % capAlign != 0)
        return CapFault::AlignmentViolation;
    u64 page = pageTrunc(va);
    Entry &e = dtlb[indexOf(page)];
    Frame *f;
    bool exec;
    // The fast path requires cached *capability*-store permission,
    // which exists only for pages already cap-dirty; a cap-clean page
    // always misses so the walk can set its dirty bit.
    if (e.pageVa == page && e.capWritable) {
        f = e.frame;
        exec = (e.prot & PROT_EXEC) != 0;
        countDataHit();
    } else {
        f = missData(page, true, true);
        if (!f)
            return missFault();
        exec = (dtlb[indexOf(page)].prot & PROT_EXEC) != 0;
    }
    if (exec && as)
        as->notifyCodeWrite();
    f->writeCap(va & pageMask, cap);
    return std::nullopt;
}

MemAccess::StrRead
MemAccess::readString(u64 va, std::string *out, u64 max, u64 *scanned)
{
    out->clear();
    u64 n = 0;
    while (n < max) {
        u64 page = pageTrunc(va);
        u64 off = va & pageMask;
        u64 chunk = std::min(max - n, pageSize - off);
        Entry &e = dtlb[indexOf(page)];
        Frame *f;
        if (e.pageVa == page && (e.prot & PROT_READ)) {
            f = e.frame;
            countDataHit();
        } else {
            f = missData(page, false);
            if (!f) {
                if (scanned)
                    *scanned = n;
                return StrRead::Fault;
            }
        }
        const u8 *base = f->bytes().data() + off;
        const void *nul = std::memchr(base, 0, chunk);
        if (nul) {
            u64 k = static_cast<u64>(static_cast<const u8 *>(nul) - base);
            out->append(reinterpret_cast<const char *>(base), k);
            n += k + 1; // the NUL was examined too
            if (scanned)
                *scanned = n;
            return StrRead::Ok;
        }
        out->append(reinterpret_cast<const char *>(base), chunk);
        n += chunk;
        va += chunk;
    }
    if (scanned)
        *scanned = n;
    return StrRead::TooLong;
}

void
MemAccess::invalidatePage(u64 page_va)
{
    page_va = pageTrunc(page_va);
    Entry &d = dtlb[indexOf(page_va)];
    if (d.pageVa == page_va)
        d = Entry{};
    Entry &i = itlb[indexOf(page_va)];
    if (i.pageVa == page_va)
        i = Entry{};
    ++_fetchGen;
    ++st.invalidations;
    if (counters)
        ++counters[TlbInvalidation];
}

void
MemAccess::invalidateRange(u64 start, u64 len)
{
    u64 first = pageTrunc(start);
    u64 last = pageRound(start + len);
    // A range spanning every set is just a flush.
    if ((last - first) / pageSize >= tlbSize) {
        dtlb.fill(Entry{});
        itlb.fill(Entry{});
    } else {
        for (u64 page = first; page < last; page += pageSize) {
            Entry &d = dtlb[indexOf(page)];
            if (d.pageVa == page)
                d = Entry{};
            Entry &i = itlb[indexOf(page)];
            if (i.pageVa == page)
                i = Entry{};
        }
    }
    ++_fetchGen;
    ++st.invalidations;
    if (counters)
        ++counters[TlbInvalidation];
}

void
MemAccess::invalidateAll()
{
    dtlb.fill(Entry{});
    itlb.fill(Entry{});
    ++_fetchGen;
    ++st.invalidations;
    if (counters)
        ++counters[TlbInvalidation];
}

} // namespace cheri
