/**
 * @file
 * Checkpoint/restore implementation: the snap::Access seam.
 *
 * Everything here is a static member of snap::Access, the single friend
 * every serialized class names.  The image is a little-endian byte
 * stream of tagged sections in dependency order — config, frames, swap,
 * vfs, processes, kernel scalars, injector, metrics, scheduler — so a
 * truncated image fails cleanly partway through and the abort path
 * (resetToEmpty) can always rebuild a usable kernel.
 *
 * Each serialized struct has one transfer(Ar &, T &): its field list,
 * written once and run by both directions.  The Saver archive appends
 * each field to the image, the Loader reads it back, so save and
 * restore cannot disagree on a field's order, width or presence.  Only
 * what is inherently one-sided sits outside those lists: the save-side
 * refusals and numbering of shared objects, and the load-side teardown,
 * construction, cross-record checks and commit.
 *
 * Reading is bounds-checked at every step: a corrupt or truncated image
 * raises an internal ParseError, never a host fault, and forged counts
 * cannot allocate past the image's own size.
 */

#include "os/snapshot/snapshot.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "os/kernel.h"
#include "os/sched/sched.h"

namespace cheri::snap
{

namespace
{

/** Image magic at offset 0: the bytes "CHRIIMG1" as a little-endian
 *  u64. */
constexpr u64 imageMagic = 0x31474d4949524843;

/** Bytes of one saved page-table entry: va, frame id, prot, cow, shared,
 *  swapped, slot, lastUse, capDirty, sweptEpoch, queuedEpoch. */
constexpr u64 pageRecordBytes = 8 + 4 + 4 + 1 + 1 + 1 + 8 + 8 + 1 + 8 + 8;

/** Section tags, in stream order. */
enum SectionTag : u32
{
    SEC_CONFIG = 0x43484101,
    SEC_FRAMES,
    SEC_SWAP,
    SEC_VFS,
    SEC_PROCS,
    SEC_KERNEL,
    SEC_INJECT,
    SEC_METRICS,
    SEC_SCHED,
    SEC_END,
};

struct Writer
{
    std::vector<u8> out;

    void put8(u8 v) { out.push_back(v); }
    void putBool(bool v) { out.push_back(v ? 1 : 0); }
    /** Unsigned integer of any width, little-endian. */
    template <class T>
    void
    putInt(T v)
    {
        u8 b[sizeof(T)];
        for (unsigned i = 0; i < sizeof(T); ++i)
            b[i] = static_cast<u8>(v >> (8 * i));
        putBytes(b, sizeof(T));
    }
    void
    putBytes(const void *p, u64 n)
    {
        const u8 *b = static_cast<const u8 *>(p);
        out.insert(out.end(), b, b + n);
    }
    void
    putStr(const std::string &s)
    {
        putInt<u64>(s.size());
        putBytes(s.data(), s.size());
    }
};

/** Internal parse failure; caught at the restore top level only. */
struct ParseError
{
    explicit ParseError(std::string m) : msg(std::move(m)) {}
    std::string msg;
};

class Reader
{
  public:
    explicit Reader(const std::vector<u8> &v)
        : p(v.data()), end(v.data() + v.size())
    {
    }

    u64 remaining() const { return static_cast<u64>(end - p); }

    void
    need(u64 n)
    {
        if (remaining() < n)
            throw ParseError("truncated image");
    }
    u8
    get8()
    {
        need(1);
        return *p++;
    }
    bool
    getBool()
    {
        u8 v = get8();
        if (v > 1)
            throw ParseError("corrupt boolean");
        return v != 0;
    }
    /** Unsigned integer of any width, little-endian. */
    template <class T>
    T
    getInt()
    {
        need(sizeof(T));
        T v = 0;
        for (unsigned i = 0; i < sizeof(T); ++i)
            v |= static_cast<T>(static_cast<T>(*p++) << (8 * i));
        return v;
    }
    void
    getBytes(void *dst, u64 n)
    {
        need(n);
        if (n != 0)
            std::memcpy(dst, p, n);
        p += n;
    }
    std::string
    getStr()
    {
        u64 n = getInt<u64>();
        need(n);
        std::string s(reinterpret_cast<const char *>(p), n);
        p += n;
        return s;
    }
    /** Enum byte with an inclusive upper bound. */
    u8
    getEnum(u8 max, const char *what)
    {
        u8 v = get8();
        if (v > max)
            throw ParseError(std::string("corrupt enum value: ") + what);
        return v;
    }
    /** Element count: bounded by the bytes left, so a forged count can
     *  never drive an allocation past the image's own size. */
    u64
    getCount()
    {
        u64 n = getInt<u64>();
        if (n > remaining())
            throw ParseError("corrupt element count");
        return n;
    }

  private:
    const u8 *p;
    const u8 *end;
};

/** Object table for one kind of shared object (frames, channels,
 *  vnodes, open files): the image names each object by its id, and
 *  id 0 is the null reference. */
template <class T> struct IdTable
{
    /** The object with id i, at index i - 1. */
    std::vector<std::shared_ptr<T>> objs;
    /** Save only: the id of each numbered object. */
    std::unordered_map<const T *, u32> ids;

    /** Save: number @p p; false when it is null or already numbered. */
    bool
    note(const std::shared_ptr<T> &p)
    {
        if (!p ||
            !ids.emplace(p.get(), static_cast<u32>(objs.size() + 1)).second)
            return false;
        objs.push_back(p);
        return true;
    }
};

/** The shared objects the image names by id.  Both archives keep them:
 *  save numbers the objects before writing, load fills each table from
 *  its section and resolves later references against it. */
struct Tables
{
    IdTable<Frame> frames;
    IdTable<ByteChannel> chans;
    IdTable<VNode> nodes;
    IdTable<OpenFile> files;
};

/** Map-like containers are sequenced as (key, value) pairs. */
template <class C>
constexpr bool isMap = requires { typename C::mapped_type; };

// The two archives share one interface, so one transfer body per struct
// serves both directions.  Inside them the integer primitives hide the
// cheri::uN type names, hence the std:: spellings.  u64 and boolean
// take any number of fields, in order.

/** Save direction: every primitive appends its fields to the image. */
class Saver : public Tables
{
  public:
    static constexpr bool loading = false;

    template <class T> void u8(T &v) { w.put8(std::uint8_t(v)); }
    template <class T> void u16(T &v) { w.putInt(std::uint16_t(v)); }
    template <class T> void u32(T &v) { w.putInt(std::uint32_t(v)); }
    template <class... T>
    void
    u64(T &...v)
    {
        (w.putInt(std::uint64_t(v)), ...);
    }
    void boolean(auto &...v) { (w.putBool(v), ...); }
    void str(std::string &s) { w.putStr(s); }
    void bytes(void *p, std::uint64_t n) { w.putBytes(p, n); }
    /** Element count of a sequence the caller walks itself. */
    void count(std::uint64_t &n) { w.putInt(n); }
    template <class E> void enumeration(E &e, std::uint8_t, const char *)
    {
        w.put8(static_cast<std::uint8_t>(e));
    }
    /** Load-side validation: a live kernel has nothing to reject. */
    void check(bool, const char *, const char * = "") {}

    /** Count, then each element; a map's entries as (key, value), an
     *  unordered map's in key order so the image is deterministic. */
    template <class C, class Fn>
    void
    seq(C &c, Fn &&fn, const char * = nullptr)
    {
        w.putInt(std::uint64_t(c.size()));
        if constexpr (isMap<C>) {
            using K = typename C::key_type;
            if constexpr (requires { c.hash_function(); }) {
                std::map<K, typename C::mapped_type *> sorted;
                for (auto &[k, v] : c)
                    sorted.emplace(k, &v);
                for (auto &[k, v] : sorted)
                    fn(const_cast<K &>(k), *v);
            } else {
                for (auto &e : c)
                    fn(const_cast<K &>(e.first), e.second);
            }
        } else {
            for (auto &e : c)
                fn(e);
        }
    }

    /** A reference into @p t: the object's id, 0 for null. */
    template <class T>
    void
    ref(std::shared_ptr<T> &p, IdTable<T> &t, const char *, bool)
    {
        w.putInt(p ? t.ids.at(p.get()) : std::uint32_t{0});
    }

    std::vector<std::uint8_t> &image() { return w.out; }

  private:
    Writer w;
};

/** Load direction: every primitive reads its fields back, bounds-checked
 *  by the Reader; an invalid value raises ParseError. */
class Loader : public Tables
{
  public:
    static constexpr bool loading = true;

    explicit Loader(const std::vector<std::uint8_t> &image) : r(image) {}

    template <class T> void u8(T &v) { v = T(r.get8()); }
    template <class T> void u16(T &v) { v = T(r.getInt<std::uint16_t>()); }
    template <class T> void u32(T &v) { v = T(r.getInt<std::uint32_t>()); }
    template <class... T>
    void
    u64(T &...v)
    {
        ((v = T(r.getInt<std::uint64_t>())), ...);
    }
    void boolean(auto &...v) { ((v = r.getBool()), ...); }
    void str(std::string &s) { s = r.getStr(); }
    void bytes(void *p, std::uint64_t n) { r.getBytes(p, n); }
    void count(std::uint64_t &n) { n = r.getCount(); }
    template <class E>
    void
    enumeration(E &e, std::uint8_t max, const char *what)
    {
        e = static_cast<E>(r.getEnum(max, what));
    }
    void
    check(bool ok, const char *msg, const char *what = "")
    {
        if (!ok)
            throw ParseError(std::string(msg) + what);
    }

    /** Replace @p c with the image's elements.  A map entry whose key
     *  is already present replaces it, or fails with @p duplicate when
     *  that is set. */
    template <class C, class Fn>
    void
    seq(C &c, Fn &&fn, const char *duplicate = nullptr)
    {
        c.clear();
        std::uint64_t n = r.getCount();
        for (std::uint64_t i = 0; i < n; ++i) {
            if constexpr (isMap<C>) {
                typename C::key_type k{};
                typename C::mapped_type v{};
                fn(k, v);
                if (!duplicate)
                    c.insert_or_assign(std::move(k), std::move(v));
                else if (!c.try_emplace(std::move(k), std::move(v)).second)
                    throw ParseError(duplicate);
            } else {
                fn(c.emplace_back());
            }
        }
    }

    /** Resolve an id in @p t; one past the table (or 0, unless
     *  @p nullable) fails with @p what. */
    template <class T>
    void
    ref(std::shared_ptr<T> &p, IdTable<T> &t, const char *what,
        bool nullable)
    {
        std::uint32_t id = r.getInt<std::uint32_t>();
        if (id > t.objs.size() || (id == 0 && !nullable))
            throw ParseError(what);
        p = id ? t.objs[id - 1] : nullptr;
    }

    std::uint64_t remaining() const { return r.remaining(); }

  private:
    Reader r;
};

std::vector<u8>
refuse(std::string *error, std::string msg)
{
    if (error)
        *error = std::move(msg);
    return {};
}

} // namespace

struct Access
{
    static constexpr u8 maxCapFault = numCapFaults - 1;
    static constexpr u8 maxDeriveSource = numDeriveSources - 1;

    /** A value the image repeats verbatim: save writes it, load
     *  rejects an image that holds anything else. */
    template <class Ar, class T>
    static void
    constant(Ar &ar, T value, const char *error, const char *what = "")
    {
        T v = value;
        if constexpr (sizeof(T) == 8)
            ar.u64(v);
        else
            ar.u32(v);
        ar.check(v == value, error, what);
    }

    template <class Ar>
    static void
    section(Ar &ar, SectionTag tag, const char *what)
    {
        constant(ar, tag, "bad section tag: ", what);
    }

    /** A sequence or map whose elements (keys and values) each have a
     *  transfer of their own. */
    template <class Ar, class C>
    static void
    items(Ar &ar, C &c, const char *duplicate = nullptr)
    {
        if constexpr (isMap<C>) {
            auto entry = [&](auto &k, auto &v) {
                transfer(ar, k);
                transfer(ar, v);
            };
            ar.seq(c, entry, duplicate);
        } else {
            ar.seq(c, [&](auto &e) { transfer(ar, e); });
        }
    }

    // ------------------------------------------------------------------
    // One transfer per serialized struct: the field list both
    // directions share.
    // ------------------------------------------------------------------

    template <class Ar> static void transfer(Ar &ar, u64 &v) { ar.u64(v); }

    /** Fixed-size arrays carry no count: just their elements. */
    template <class Ar, class T, std::size_t N>
    static void
    transfer(Ar &ar, std::array<T, N> &a)
    {
        for (T &e : a)
            transfer(ar, e);
    }

    /** A (pid, tid) key or an address range. */
    template <class Ar> static void transfer(Ar &ar, std::pair<u64, u64> &p)
    {
        ar.u64(p.first, p.second);
    }

    template <class Ar> static void transfer(Ar &ar, Capability &c)
    {
        ar.boolean(c._tag);
        ar.u64(c._base);
        // The 128-bit top travels as two words, low first.
        u64 lo = static_cast<u64>(c._top);
        u64 hi = static_cast<u64>(c._top >> 64);
        ar.u64(lo, hi);
        if constexpr (Ar::loading)
            c._top = static_cast<u128>(hi) << 64 | lo;
        ar.u64(c._address);
        ar.u32(c._perms);
        ar.u32(c._otype);
        ar.enumeration(c._format, 1, "cap format");
        ar.u64(c._rawMeta);
        ar.boolean(c._hasRawMeta);
    }

    template <class Ar> static void transfer(Ar &ar, ThreadRegs &t)
    {
        transfer(ar, t.pcc);
        transfer(ar, t.ddc);
        transfer(ar, t.c);
        transfer(ar, t.x);
    }

    template <class Ar> static void transfer(Ar &ar, isa::InterpResult &res)
    {
        ar.enumeration(res.status, 4, "status");
        ar.u64(res.steps);
        ar.enumeration(res.fault, maxCapFault, "fault");
        ar.u64(res.faultPc, res.faultAddr);
        ar.u8(res.faultOp);
    }

    template <class Ar> static void transfer(Ar &ar, obs::Histogram &h)
    {
        transfer(ar, h.buckets);
        ar.u64(h.count, h.sum, h.min, h.max);
    }

    template <class Ar> static void transfer(Ar &ar, MachineFeatures &f)
    {
        ar.boolean(f.largeClcImmediate, f.asanInstrumentation);
    }

    /** The config and layout header: the constants the image must share
     *  with this build, then the kernel's config. */
    template <class Ar> static void transfer(Ar &ar, KernelConfig &cfg)
    {
        const u32 layout[] = {numSysNums,       obs::Metrics::maxOps,
                              numTlbCounters,   numCapFaults,
                              numDeriveSources, numSignals,
                              numCapRegs,       numFaultPoints};
        for (u32 expected : layout)
            constant(ar, expected,
                     "layout-constant mismatch (image from an "
                     "incompatible build)");
        constant(ar, pageSize, "page-size mismatch");
        ar.enumeration(cfg.capFormat, 1, "cap format");
        ar.enumeration(cfg.swapPolicy, 1, "swap policy");
        transfer(ar, cfg.features);
        ar.u64(cfg.stackSize, cfg.aslrSeed, cfg.frameCapacity,
               cfg.swapSlotBudget, cfg.revokeSliceBudget,
               cfg.timeSliceSteps);
    }

    // ---- memory: frames, swap, address spaces ----

    template <class Ar> static void transfer(Ar &ar, PhysMem &phys)
    {
        ar.u64(phys.allocated, phys.failed, phys.reclaims, phys.capacity);
    }

    /** One tagged granule of a page: its offset, then its capability.
     *  Frames and swap slots share this entry, so restore checks every
     *  offset the same way before it can reach Frame::writeCap. */
    template <class Ar>
    static void
    transfer(Ar &ar, std::pair<u64, Capability> &tag)
    {
        ar.u64(tag.first);
        ar.check(tag.first < pageSize && tag.first % capSize == 0,
                 "corrupt tag offset");
        transfer(ar, tag.second);
    }

    template <class Ar> static void transfer(Ar &ar, Frame &f)
    {
        ar.bytes(f.data.data(), pageSize);
        // The frame keeps its tags as a bitmap beside the bytes: save
        // lists the tagged granules, load stores each capability over
        // the bytes just read.
        u64 nTags = f.taggedCount();
        ar.count(nTags);
        std::pair<u64, Capability> tag;
        if constexpr (Ar::loading) {
            for (u64 i = 0; i < nTags; ++i) {
                transfer(ar, tag);
                f.writeCap(tag.first, tag.second);
            }
        } else {
            f.forEachTagged([&](u64 off, const Capability &c) {
                tag = {off, c};
                transfer(ar, tag);
            });
        }
    }

    template <class Ar> static void transfer(Ar &ar, SwapDevice::Slot &slot)
    {
        ar.bytes(slot.bytes.data(), pageSize);
        items(ar, slot.tagMeta);
        ar.u64(slot.refs);
    }

    template <class Ar> static void transfer(Ar &ar, SwapDevice &sw)
    {
        ar.enumeration(sw._policy, 1, "swap policy");
        ar.u64(sw.budget, sw.nextSlot, sw.swapOuts, sw.tagsPreserved,
               sw.swapOutFailures, sw.swapInFailures, sw.sweepScanFailures,
               sw.discards);
        items(ar, sw.slots, "duplicate swap slot");
    }

    /** The mapping header; its start is the region map's key. */
    template <class Ar> static void transfer(Ar &ar, Mapping &m)
    {
        ar.u64(m.len);
        ar.u32(m.prot);
        ar.enumeration(m.kind, 9, "map kind");
        ar.boolean(m.shared);
        ar.str(m.name);
        ar.u64(m.backingOffset);
    }

    /** The PTE record; its VA is the page table's to place. */
    template <class Ar> static void transfer(Ar &ar, AddressSpace::Pte &pte)
    {
        ar.ref(pte.frame, ar.frames, "corrupt frame id", true);
        ar.u32(pte.prot);
        ar.boolean(pte.cow, pte.shared, pte.swapped);
        // The kernel never swaps a shared page out, and the revocation
        // close barrier, which must not fail, relies on that.
        ar.check(!(pte.shared && pte.swapped), "corrupt shared swapped page");
        ar.u64(pte.swapSlot, pte.lastUse);
        ar.boolean(pte.capDirty);
        ar.u64(pte.sweptEpoch, pte.queuedEpoch);
    }

    /** Everything after the constructor arguments (see ProcHeader). */
    template <class Ar> static void transfer(Ar &ar, AddressSpace &as)
    {
        transfer(ar, as.root);
        ar.u64(as.useClock);
        ar.enumeration(as.walkFault, maxCapFault, "walk fault");
        ar.u64(as.activeSweepEpoch);
        items(ar, as.redirtied);

        u64 mappedEnd = 0;
        u64 mappedPages = 0;
        ar.seq(as.regions, [&](u64 &start, AddressSpace::Region &region) {
            Mapping &m = region.map;
            ar.u64(start);
            transfer(ar, m);
            if constexpr (Ar::loading) {
                // Mappings are saved VA-ascending, page-aligned and
                // disjoint; each region's PTE array spans it exactly.
                // Every mapped page needs its own page record later in
                // the image, which bounds the arrays allocated.
                m.start = start;
                ar.check(m.len != 0 && ((m.start | m.len) & pageMask) == 0 &&
                             m.start >= mappedEnd &&
                             m.len <= AddressSpace::userTop - m.start,
                         "corrupt mapping bounds");
                mappedEnd = m.end();
                ar.check(mappedPages + m.len / pageSize <=
                             ar.remaining() / pageRecordBytes,
                         "corrupt mapping bounds");
                region.ptes.resize(m.len / pageSize);
            }
            mappedPages += m.len / pageSize;
        });

        u64 nPages = mappedPages;
        ar.count(nPages);
        if constexpr (Ar::loading) {
            // Every mapped page has exactly one record, VA-ascending as
            // saved: an unmapped, duplicated or missing page would leave
            // a PTE the page table cannot hold.
            u64 prevVa = 0;
            for (u64 k = 0; k < nPages; ++k) {
                u64 va = 0;
                ar.u64(va);
                ar.check(k == 0 || va > prevVa,
                         "duplicate or out-of-order page record");
                prevVa = va;
                AddressSpace::Region *region = as.findRegion(va);
                ar.check(region && (va & pageMask) == 0,
                         "page record outside every mapping");
                u64 idx = (va - region->map.start) / pageSize;
                AddressSpace::Pte &pte = region->ptes[idx];
                transfer(ar, pte);
                if (pte.frame || pte.swapped)
                    region->noteContent(idx);
            }
            ar.check(nPages == mappedPages,
                     "mapping page count does not match its page "
                     "records");
        } else {
            AddressSpace::eachPte(as, [&](u64 va, AddressSpace::Pte &pte) {
                ar.u64(va);
                transfer(ar, pte);
            });
        }
    }

    // ---- processes ----

    template <class Ar> static void transfer(Ar &ar, Cache &c)
    {
        // The geometry comes from the config: the image must agree.
        u64 lineBytes = u64{1} << c.lineShift;
        u64 numSets = c.numSets;
        u32 ways = c.ways;
        ar.u64(lineBytes, numSets);
        ar.u32(ways);
        ar.check(lineBytes == u64{1} << c.lineShift &&
                     numSets == c.numSets && ways == c.ways,
                 "cache geometry mismatch");
        ar.u64(c.tick, c._hits, c._misses);
        u64 nWays = c.numSets * c.ways;
        ar.u64(nWays);
        ar.check(nWays == c.numSets * c.ways,
                 "cache way-array size mismatch");

        // The image keeps a valid flag per way.  The cache holds only
        // each set's filled suffix; the ways before it are written as
        // {0, false, 0}, and a restore must find exactly that form.
        struct Record
        {
            u64 tag = 0;
            bool valid = false;
            u64 lru = 0;
        };
        std::vector<Record> set(c.ways);
        if constexpr (Ar::loading)
            c.flush();
        for (u64 s = 0; s < c.numSets; ++s) {
            if constexpr (!Ar::loading) {
                const Cache::Way *base = &c.slots[s << c.wayShift];
                for (u32 w = 0; w < c.ways; ++w) {
                    set[w] = w < c.ways - c.fill[s]
                                 ? Record{}
                                 : Record{base[w].tag, true, base[w].lru};
                }
            }
            for (Record &r : set) {
                ar.u64(r.tag);
                ar.boolean(r.valid);
                ar.u64(r.lru);
            }
            if constexpr (Ar::loading) {
                u32 first = c.ways;
                while (first > 0 && set[first - 1].valid)
                    --first;
                for (u32 w = 0; w < first; ++w) {
                    const Record &r = set[w];
                    ar.check(!r.valid, "cache valid ways are not a suffix "
                                       "of their set");
                    ar.check(!r.tag && !r.lru, "corrupt empty cache way");
                }
                for (u32 w = first; w < c.ways; ++w) {
                    ar.check(set[w].lru <= c.tick,
                             "cache way used after the cache's clock");
                    // The last-way probe assumes one way per tag.
                    for (u32 o = first; o < w; ++o)
                        ar.check(set[o].tag != set[w].tag,
                                 "duplicate tag in a cache set");
                }
                for (u32 w = c.ways; w-- > first;) {
                    Cache::Way &way = c.fillWay(s);
                    way.tag = set[w].tag;
                    way.lru = set[w].lru;
                }
            }
        }
    }

    template <class Ar> static void transfer(Ar &ar, CostModel &cm)
    {
        // The code footprint is a constant the image still records; the
        // PC walks it in whole instructions.  A warm L1I's deferred hits
        // go into the image as the per-line stream would have left them.
        if constexpr (!Ar::loading)
            cm.settleL1I();
        u64 footprint = CostModel::codeFootprint;
        ar.u64(cm._instructions, cm._cycles, cm._codeBytes,
               cm._itlbAccesses, cm._itlbMisses, cm._dtlbAccesses,
               cm._dtlbMisses, cm.pc, footprint);
        ar.check(footprint == CostModel::codeFootprint,
                 "code footprint mismatch");
        ar.check(cm.pc % CostModel::insnBytes == 0 &&
                     cm.pc >= CostModel::codeBase &&
                     cm.pc - CostModel::codeBase < CostModel::codeFootprint,
                 "corrupt fetch pc");
        transfer(ar, cm.cacheHier.l1i);
        if constexpr (Ar::loading) {
            // Only fetch fills the L1I, with footprint lines.  It is
            // warm iff it holds all of them (two per set), and then its
            // stamps are the closed form of the image's clock and pc.
            u64 held = 0;
            cm.forEachL1ILine([&](Cache::Way &, u64 line) {
                ar.check(line < CostModel::codeLines,
                         "L1I line outside the code footprint");
                ++held;
            });
            cm.l1iColdLines = CostModel::codeLines - held;
            cm.l1iPending = 0;
            if (cm.instructionCacheWarm()) {
                cm.forEachL1ILine([&](Cache::Way &way, u64 line) {
                    ar.check(way.lru == cm.warmStamp(line),
                             "warm L1I stamps do not match its clock");
                });
            }
        }
        transfer(ar, cm.cacheHier.l1d);
        transfer(ar, cm.cacheHier.l2);
    }

    template <class Ar> static void transfer(Ar &ar, ThreadRecord &t)
    {
        ar.u64(t.tid);
        transfer(ar, t.saved);
        transfer(ar, t.stackCap);
        ar.boolean(t.live);
    }

    template <class Ar> static void transfer(Ar &ar, SigAction &a)
    {
        ar.enumeration(a.kind, 2, "sigaction kind");
        ar.u64(a.handlerId);
    }

    template <class Ar> static void transfer(Ar &ar, DeathInfo &d)
    {
        ar.u32(d.signal);
        ar.enumeration(d.fault, maxCapFault, "death fault");
        ar.u64(d.faultAddr);
        ar.str(d.detail);
        transfer(ar, d.faultCap);
        ar.boolean(d.faultCapKnown, d.deadlock);
    }

    /** What a Process and its AddressSpace are constructed from, in
     *  image order: load reads these before either object exists. */
    struct ProcHeader
    {
        u64 ppid = 0;
        Abi abi = Abi::Mips64;
        std::string name;
        MachineFeatures features;
        u64 principal = 0;
        u64 aslrSlide = 0;
        compress::CapFormat fmt = compress::CapFormat::Cap128;
    };

    template <class Ar> static void transfer(Ar &ar, ProcHeader &h)
    {
        ar.u64(h.ppid);
        ar.enumeration(h.abi, 2, "abi");
        ar.str(h.name);
        transfer(ar, h.features);
        ar.u64(h.principal, h.aslrSlide);
        ar.enumeration(h.fmt, 1, "cap format");
    }

    /** Everything after the constructor arguments (see ProcHeader). */
    template <class Ar> static void transfer(Ar &ar, Process &p)
    {
        transfer(ar, p._regs);
        transfer(ar, p._cost);
        ar.seq(p.fds, [&](OpenFileRef &of) {
            ar.ref(of, ar.files, "corrupt open-file id", true);
        });
        items(ar, p.threads);
        ar.u64(p.curThread, p.nextTid);
        // curThread is a tid, not an index: the main thread is tid 0
        // and only spawned threads get records, so the only sound bound
        // is the allocator's high-water mark.
        ar.check(p.curThread < p.nextTid, "corrupt current-thread id");
        transfer(ar, p.sigActions);
        ar.u64(p.sigPending, p.sigMask);
        for (Capability *c : {&p.stackCap, &p.argvCap, &p.envvCap,
                              &p.auxvCap, &p.trampolineCap})
            transfer(ar, *c);
        ar.u32(p.argc);
        ar.u32(p.envc);
        ar.u64(p.heapHint, p.brkBase, p.brkCur, p.brkLimit);
        ar.boolean(p._exited);
        ar.u32(p._exitStatus);
        bool dead = p._death.has_value();
        ar.boolean(dead);
        if (dead)
            transfer(ar, p._death ? *p._death : p._death.emplace());
    }

    /** One process-table entry.  Load builds the AddressSpace and the
     *  Process as soon as the image has supplied their constructors'
     *  arguments. */
    template <class Ar>
    static void
    transferProcess(Ar &ar, Kernel &kern, u64 &pid,
                    std::unique_ptr<Process> &p)
    {
        ar.u64(pid);
        ProcHeader h;
        if constexpr (Ar::loading) {
            transfer(ar, h);
            auto as = std::make_unique<AddressSpace>(kern.phys, kern.swap,
                                                     h.principal, h.fmt, 0);
            as->aslrSlide = h.aslrSlide;
            transfer(ar, *as);
            p = std::make_unique<Process>(kern, pid, h.ppid, h.abi, h.name,
                                          std::move(as), h.features);
        } else {
            const AddressSpace &as = *p->_as;
            h = {p->_ppid,           p->_abi,       p->_name,
                 p->_cost._features, as._principal, as.aslrSlide,
                 as.fmt};
            transfer(ar, h);
            transfer(ar, *p->_as);
        }
        transfer(ar, *p);
    }

    // ---- vfs ----

    template <class Ar> static void transfer(Ar &ar, ByteChannel &ch)
    {
        ar.seq(ch.buf, [&](u8 &b) { ar.u8(b); });
        ar.boolean(ch.writerClosed, ch.readerClosed);
        ar.u64(ch.readWait, ch.writeWait);
    }

    template <class Ar> static void transfer(Ar &ar, VNode &n)
    {
        ar.enumeration(n.kind, 4, "node kind");
        ar.str(n.name);
        u64 len = n.data.size();
        ar.count(len);
        n.data.resize(len);
        ar.bytes(n.data.data(), len);
        ar.seq(n.children, [&](std::string &name, VNodeRef &child) {
            ar.str(name);
            ar.ref(child, ar.nodes, "corrupt vnode id", false);
        });
        ar.ref(n.readCh, ar.chans, "corrupt channel id", true);
        ar.ref(n.writeCh, ar.chans, "corrupt channel id", true);
    }

    template <class Ar> static void transfer(Ar &ar, OpenFile &of)
    {
        ar.ref(of.node, ar.nodes, "corrupt vnode id", false);
        ar.u64(of.offset);
        ar.u32(of.flags);
    }

    // ---- counter blocks, kernel tables ----

    /** Every counter block (os/counters.h, obs/metrics.h): its field
     *  list, in order. */
    template <class Ar, CounterBlock S> static void transfer(Ar &ar, S &c)
    {
        forEachField(c, [&](const auto &, u64 &v) { ar.u64(v); });
    }

    template <class Ar> static void transfer(Ar &ar, Kernel::ShmSegment &seg)
    {
        ar.u64(seg.size);
        ar.seq(seg.frames, [&](FrameRef &f) {
            ar.ref(f, ar.frames, "corrupt shm frame id", false);
        });
    }

    template <class Ar> static void transfer(Ar &ar, KEvent &e)
    {
        ar.u32(e.ident);
        ar.u64(e.filter);
        transfer(ar, e.udata);
    }

    template <class Ar> static void transfer(Ar &ar, RevocationEpoch &ep)
    {
        ar.boolean(ep.open);
        ar.u64(ep.id);
        items(ar, ep.ranges);
        items(ar, ep.worklist);
        ar.boolean(ep.forceFull, ep.incremental);
        ar.u64(ep.revoked, ep.cyclesAtOpen);
        items(ar, ep.closedRanges);
        ar.u64(ep.closeSeq);
    }

    template <class Ar> static void transfer(Ar &ar, FaultInjector::Arm &a)
    {
        ar.enumeration(a.mode, 2, "inject mode");
        ar.u64(a.countdown, a.period, a.lcg, a.seen, a.fired);
    }

    // ---- the metrics registry's own state ----

    template <class Ar> static void transfer(Ar &ar, obs::SyscallStats &st)
    {
        ar.u64(st.calls, st.errors);
        transfer(ar, st.cycles);
    }

    template <class Ar> static void transfer(Ar &ar, obs::FaultRecord &f)
    {
        ar.enumeration(f.cause, maxCapFault, "fault cause");
        ar.u64(f.pc, f.addr);
        ar.enumeration(f.abi, 2, "fault abi");
        ar.u16(f.sysnum);
        ar.enumeration(f.provenance, maxDeriveSource, "provenance");
        ar.boolean(f.provenanceKnown);
    }

    template <class Ar> static void transfer(Ar &ar, obs::CostSnapshot &c)
    {
        ar.str(c.label);
        ar.enumeration(c.abi, 2, "cost abi");
        for (const obs::CostField &f : obs::costFields)
            ar.u64(c.*f.member);
    }

    template <class Ar> static void transfer(Ar &ar, obs::Metrics &m)
    {
        transfer(ar, m.sys);
        transfer(ar, m.insnMix);
        transfer(ar, m.tlb);
        items(ar, m._faults);
        ar.u64(m.faultsDropped);
        transfer(ar, m.faultsByCause);
        items(ar, m._threadSteps);
        transfer(ar, m.chk);
        transfer(ar, m.snp);
        items(ar, m.costs);
        transfer(ar, m.deriveCounts);
        ar.seq(m.provenance,
               [&](std::pair<u64, u64> &range, DeriveSource &src) {
                   transfer(ar, range);
                   ar.enumeration(src, maxDeriveSource, "provenance");
               });
        ar.u64(m.currentSys);
    }

    // ---- scheduler ----

    /** The context's wait state and accounting; its (pid, tid) is the
     *  context map's key and its state comes first (transferSched). */
    template <class Ar>
    static void
    transfer(Ar &ar, sched::ExecContext &ctx)
    {
        ar.enumeration(ctx.blockKind, 4, "block kind");
        ar.u64(ctx.blockArg);
        ar.boolean(ctx.restartOnWake);
        items(ar, ctx.fdChans);
        ar.boolean(ctx.fdDeadlineArmed);
        ar.u64(ctx.fdDeadline);
        ar.boolean(ctx.fdTimedOut);
        transfer(ar, ctx.last);
        ar.u64(ctx.stepLimit, ctx.readyBaseSteps, ctx.slices);
    }

    /** The scheduler: load builds a fresh one and installs it last. */
    template <class Ar>
    static void
    transferSched(Ar &ar, Kernel &kern, sched::Scheduler *sch)
    {
        using Ctx = sched::ExecContext;
        std::unique_ptr<sched::Scheduler> fresh;
        if constexpr (Ar::loading) {
            fresh = std::make_unique<sched::Scheduler>(kern);
            sch = fresh.get();
        }
        ar.u64(sch->vclock);
        // Installing the scheduler zeroes the kernel's scheduler
        // counters: load stages the image's and stores them after.
        SchedStats st = sch->st;
        transfer(ar, st);
        auto context = [&](std::pair<u64, u64> &key,
                           std::unique_ptr<Ctx> &ctx) {
            transfer(ar, key);
            if constexpr (Ar::loading) {
                ctx = std::make_unique<Ctx>();
                ctx->pid = key.first;
                ctx->tid = key.second;
            }
            // A mid-slice save serializes the running context as
            // Runnable at the front of the run queue: the restored
            // image resumes it from its current PC.
            Ctx::State runnable = Ctx::State::Runnable;
            Ctx::State &state =
                !Ar::loading && ctx.get() == sch->current ? runnable
                                                          : ctx->state;
            ar.enumeration(state, 3, "context state");
            transfer(ar, *ctx);
            u64 retired = ctx->retired();
            ar.u64(retired);
            if constexpr (Ar::loading) {
                Process *proc = kern.findProcess(ctx->pid);
                ar.check(proc != nullptr, "context references unknown pid");
                ctx->interp =
                    std::make_unique<isa::Interpreter>(*proc, kern.traceSink);
                isa::installDefaultSyscallHook(*ctx->interp, kern);
                ctx->interp->_retired = retired;
            }
        };
        ar.seq(sch->ctxs, context, "duplicate scheduler context");

        // A context reference is its key; (0, 0) when not @p known.
        auto ctxRef = [&](Ctx *&c, const char *what, bool known = true) {
            std::pair<u64, u64> key{0, 0};
            if (c)
                key = {c->pid, c->tid};
            transfer(ar, key);
            if (Ar::loading && known) {
                auto it = sch->ctxs.find(key);
                ar.check(it != sch->ctxs.end(),
                         "queue references unknown context: ", what);
                c = it->second.get();
            }
        };
        std::deque<Ctx *> runq = sch->runq;
        if (sch->current)
            runq.push_front(sch->current);
        ar.seq(runq, [&](Ctx *&c) { ctxRef(c, "run queue"); });
        ar.seq(sch->blocked, [&](Ctx *&c) { ctxRef(c, "blocked list"); });
        // lastRan may point at an already-erased hosted context: save
        // compares addresses only, never dereferences.
        Ctx *lastRan = nullptr;
        if constexpr (!Ar::loading) {
            for (const auto &[key, ctx] : sch->ctxs)
                if (ctx.get() == sch->lastRan)
                    lastRan = ctx.get();
        }
        bool lastRanKnown = lastRan != nullptr;
        ar.boolean(lastRanKnown);
        ctxRef(lastRan, "lastRan", lastRanKnown);
        if constexpr (Ar::loading) {
            fresh->runq = std::move(runq);
            fresh->lastRan = lastRan;
            kern.installScheduler(std::move(fresh));
            kern.stats->sched = st;
        }
    }

    // ------------------------------------------------------------------
    // The image
    // ------------------------------------------------------------------

    template <class Ar> static void preamble(Ar &ar)
    {
        constant(ar, imageMagic, "bad magic");
        constant(ar, imageVersion, "unsupported image version");
    }

    /** Every section after the preamble, in stream order.  @p cfg is
     *  the kernel's (save) or staged for the commit (load), as is the
     *  pipes' highest @p waitToken; @p sch is the scheduler to save. */
    template <class Ar>
    static void
    transferImage(Ar &ar, Kernel &kern, KernelConfig &cfg, u64 &waitToken,
                  sched::Scheduler *sch)
    {
        section(ar, SEC_CONFIG, "config");
        transfer(ar, cfg);

        section(ar, SEC_FRAMES, "frames");
        transfer(ar, kern.phys);
        ar.seq(ar.frames.objs, [&](FrameRef &f) {
            if constexpr (Ar::loading)
                f = mintFrame(kern.phys);
            transfer(ar, *f);
        });

        section(ar, SEC_SWAP, "swap");
        transfer(ar, kern.swap);

        section(ar, SEC_VFS, "vfs");
        ar.seq(ar.chans.objs, [&](std::shared_ptr<ByteChannel> &ch) {
            if constexpr (Ar::loading)
                ch = std::make_shared<ByteChannel>();
            transfer(ar, *ch);
        });
        // Nodes name each other in any order: load makes them all
        // before reading any.
        u64 nNodes = ar.nodes.objs.size();
        ar.count(nNodes);
        if constexpr (Ar::loading) {
            ar.nodes.objs.resize(nNodes);
            for (VNodeRef &n : ar.nodes.objs)
                n = std::make_shared<VNode>();
        }
        for (VNodeRef &n : ar.nodes.objs)
            transfer(ar, *n);
        ar.ref(kern.fs.root, ar.nodes, "corrupt vnode id", false);
        ar.check(kern.fs.root->kind == NodeKind::Directory,
                 "vfs root is not a directory");
        ar.seq(ar.files.objs, [&](OpenFileRef &of) {
            if constexpr (Ar::loading)
                of = std::make_shared<OpenFile>();
            transfer(ar, *of);
        });
        ar.u64(waitToken);

        section(ar, SEC_PROCS, "processes");
        auto process = [&](u64 &pid, std::unique_ptr<Process> &p) {
            transferProcess(ar, kern, pid, p);
        };
        ar.seq(kern.procs, process, "duplicate pid");

        section(ar, SEC_KERNEL, "kernel");
        KernelCounters &ctr = *kern.stats;
        transfer(ar, ctr.pressure);
        transfer(ar, ctr.fd);
        transfer(ar, ctr.revocation);
        ar.u64(kern.switches, kern.quiescentSeq);
        transfer(ar, ctr.hardening);
        ar.u64(kern.nextEpochId, kern.nextPid, kern.nextPrincipal,
               kern.nextOtype);
        ar.u32(kern.nextShmId);
        ar.seq(kern.shmSegments, [&](int &id, Kernel::ShmSegment &seg) {
            ar.u32(id);
            transfer(ar, seg);
        });
        ar.seq(kern.kqueues, [&](u64 &pid, std::vector<KEvent> &queue) {
            ar.u64(pid);
            items(ar, queue);
        });
        items(ar, kern.attached);
        items(ar, kern.revEpochs);
        items(ar, kern.eventCounts);

        // Arms only: the injector's tap is environment.
        section(ar, SEC_INJECT, "injector");
        transfer(ar, kern.injector.arms);

        section(ar, SEC_METRICS, "metrics");
        // The image's registry state (or none) replaces the attached
        // registry's, which the commit re-attaches to this kernel alone.
        if constexpr (Ar::loading) {
            if (kern.mx)
                kern.mx->reset();
        }
        bool hasMetrics = kern.mx != nullptr;
        ar.boolean(hasMetrics);
        if (hasMetrics) {
            // With no registry attached, load still parses (and so
            // validates) the section, into a scratch registry.
            auto scratch =
                kern.mx ? nullptr : std::make_unique<obs::Metrics>();
            transfer(ar, kern.mx ? *kern.mx : *scratch);
        }

        section(ar, SEC_SCHED, "scheduler");
        bool hasSched = sch != nullptr;
        ar.boolean(hasSched);
        if (hasSched)
            transferSched(ar, kern, sch);

        section(ar, SEC_END, "end");
    }

    /** Mint a frame on the live counter without consulting capacity or
     *  the injector: the image's frames were already admitted once. */
    static FrameRef
    mintFrame(PhysMem &phys)
    {
        auto counter = phys.live;
        ++*counter;
        return FrameRef(new Frame(), [counter](Frame *f) {
            --*counter;
            delete f;
        });
    }

    // ------------------------------------------------------------------
    // save
    // ------------------------------------------------------------------

    /** Number the vnodes reachable from @p n, and their channels, in
     *  depth-first order. */
    static void
    noteNode(Tables &t, const VNodeRef &n)
    {
        if (!t.nodes.note(n))
            return;
        t.chans.note(n->readCh);
        t.chans.note(n->writeCh);
        for (const auto &[name, child] : n->children)
            noteNode(t, child);
    }

    static std::vector<u8>
    saveImpl(Kernel &kern, std::string *error)
    {
        sched::Scheduler *sch = nullptr;
        if (kern.schedIface) {
            sch = dynamic_cast<sched::Scheduler *>(kern.schedIface);
            if (!sch)
                return refuse(error, "snapshot: installed scheduler is "
                                     "not a sched::Scheduler");
            for (const auto &h : sch->hosted) {
                if (h->state != sched::ExecContext::State::Done)
                    return refuse(error,
                                  "snapshot: a hosted (host-function) "
                                  "context is live and cannot be captured");
            }
            if (sch->current && sch->current->isHost())
                return refuse(error, "snapshot: a hosted context is "
                                     "running and cannot be captured");
        }
        // Number the shared objects (deterministic order) while
        // checking every process.
        Saver ar;
        noteNode(ar, kern.fs.root);
        for (const auto &[pid, p] : kern.procs) {
            if (!p->liveSigFrames.empty())
                return refuse(error, "snapshot: process " +
                                         std::to_string(pid) +
                                         " is inside a signal handler "
                                         "(live signal frames)");
            for (const auto &[start, region] : p->_as->regions) {
                (void)start;
                const Mapping &m = region.map;
                if (m.backing || m.backingWriter)
                    return refuse(error,
                                  "snapshot: process " +
                                      std::to_string(pid) +
                                      " has a file-backed mapping (host "
                                      "callback) at " + m.name);
            }
            AddressSpace::eachPte(
                *p->_as, [&](u64, const AddressSpace::Pte &pte) {
                    ar.frames.note(pte.frame);
                });
            for (const OpenFileRef &of : p->fds) {
                if (of) {
                    noteNode(ar, of->node);
                    ar.files.note(of);
                }
            }
        }
        for (const auto &[id, seg] : kern.shmSegments) {
            (void)id;
            for (const FrameRef &f : seg.frames)
                ar.frames.note(f);
        }
        if (*kern.phys.live != ar.frames.objs.size())
            return refuse(error,
                          "snapshot: " +
                              std::to_string(*kern.phys.live -
                                             ar.frames.objs.size()) +
                              " live frame(s) not reachable from page "
                              "tables or shm segments");
        u64 waitToken = 0;
        for (const auto &ch : ar.chans.objs)
            waitToken = std::max({waitToken, ch->readWait, ch->writeWait});

        preamble(ar);
        transferImage(ar, kern, kern.cfg, waitToken, sch);
        if (kern.mx)
            kern.mx->recordSnapshot(ar.image().size());
        return std::move(ar.image());
    }

    // ------------------------------------------------------------------
    // restore
    // ------------------------------------------------------------------

    static bool
    restoreImpl(Kernel &kern, const std::vector<u8> &image,
                std::string *error)
    {
        bool mutated = false;
        try {
            Loader ar(image);
            preamble(ar);

            // From here on the kernel is mutated: any parse failure
            // must fall through to resetToEmpty.
            mutated = true;
            wipe(kern);
            KernelConfig cfg;
            u64 waitToken = 0;
            transferImage(ar, kern, cfg, waitToken, nullptr);

            // Commit: config applies only once the whole image parsed.
            kern.cfg = cfg;
            Vfs::reserveWaitIds(waitToken + 1);
            // Re-wire every restored process's fresh MemAccess into
            // the registry's TLB counter blocks, and the registry to
            // the restored counters.
            kern.setMetrics(kern.mx);
            kern.kernelReady = true;
            if (kern.mx)
                kern.mx->recordRestore(true);
            return true;
        } catch (const ParseError &e) {
            if (mutated) {
                resetToEmpty(kern);
                if (kern.mx)
                    kern.mx->reset();
                kern.setMetrics(kern.mx);
            }
            if (error)
                *error = "restore failed: " + e.msg;
            if (kern.mx)
                kern.mx->recordRestore(false);
            return false;
        }
    }

    /** Tear down all restorable state, leaving environment (trace sink,
     *  metrics pointer, check hook, injector tap, reclaim hook) wired. */
    static void
    wipe(Kernel &kern)
    {
        // Suppress FD wake edges: closeAllFds below fires channel
        // edges, and the scheduler is about to be destroyed.
        kern.kernelReady = false;
        for (auto &[pid, p] : kern.procs) {
            (void)pid;
            p->closeAllFds();
        }
        // The scheduler's contexts hold Process references: destroy
        // them before the processes.
        kern.installScheduler(nullptr);
        kern.procs.clear();
        kern.shmSegments.clear();
        kern.kqueues.clear();
        kern.attached.clear();
        kern.revEpochs.clear();
        kern.eventCounts.clear();
        kern.fs = Vfs();
        kern.swap.slots.clear();
    }

    /** Restore-abort landing pad: an empty, usable kernel matching what
     *  the Kernel constructor builds (modulo environment, which is
     *  preserved). */
    static void
    resetToEmpty(Kernel &kern)
    {
        wipe(kern);
        *kern.stats = {};
        kern.lastDispatchPid = 0;
        kern.lastDispatchCode = ~u64{0};
        kern.panicPlant = 0;
        kern.panicInProgress = false;
        kern.nextEpochId = 0;
        kern.quiescentSeq = 0;
        kern.nextPid = 1;
        kern.nextPrincipal = 1;
        kern.nextOtype = 1;
        kern.nextShmId = 1;
        kern.switches = 0;
        kern.phys.resetAccounting();
        kern.phys.capacity = kern.cfg.frameCapacity;
        kern.swap.resetAccounting();
        kern.swap._policy = kern.cfg.swapPolicy;
        kern.swap.budget = kern.cfg.swapSlotBudget;
        kern.swap.nextSlot = 0;
        kern.injector.resetArms();
        kern.initVfs();
        kern.kernelReady = true;
    }

    static void
    setReady(Kernel &kern, bool ready)
    {
        kern.kernelReady = ready;
    }
};

std::vector<u8>
save(Kernel &kern, std::string *error)
{
    return Access::saveImpl(kern, error);
}

bool
restore(Kernel &kern, const std::vector<u8> &image, std::string *error)
{
    return Access::restoreImpl(kern, image, error);
}

void
setKernelReadyForTest(Kernel &kern, bool ready)
{
    Access::setReady(kern, ready);
}

void
installPanicSnapshotHook(Kernel &kern)
{
    kern.setPanicSnapshotHook([](Kernel &k) {
        // save() refuses unsnapshottable state by returning an empty
        // image with an error string — exactly the degraded-capture
        // behavior the panic path wants, so the error is dropped.
        std::string err;
        return save(k, &err);
    });
}

} // namespace cheri::snap
