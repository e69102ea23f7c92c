/**
 * @file
 * Tests for the cache hierarchy and the per-ABI cost model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <ostream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "machine/cache.h"
#include "machine/cost_model.h"
#include "machine/host_pool.h"
#include "machine/regs.h"
#include "os/kernel.h"
#include "os/snapshot/snapshot.h"

namespace cheri
{
namespace
{

TEST(Cache, HitsAfterFill)
{
    Cache c(32 * 1024, 4);
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1030)); // same 64-byte line
    EXPECT_FALSE(c.access(0x1040)); // next line
}

TEST(Cache, LruEvictsOldest)
{
    // Direct-mapped-ish scenario: 4-way set; fill 5 conflicting lines.
    Cache c(4 * 64, 4, 64); // one set, 4 ways
    for (u64 i = 0; i < 4; ++i)
        EXPECT_FALSE(c.access(i * 64));
    for (u64 i = 0; i < 4; ++i)
        EXPECT_TRUE(c.access(i * 64));
    EXPECT_FALSE(c.access(4 * 64)); // evicts line 0
    EXPECT_FALSE(c.access(0));      // line 0 is gone
    EXPECT_TRUE(c.access(2 * 64));  // recently used lines survive
}

TEST(Cache, CapacityWorkingSetFits)
{
    Cache c(32 * 1024, 4);
    for (u64 a = 0; a < 32 * 1024; a += 64)
        c.access(a);
    u64 misses_before = c.misses();
    for (u64 a = 0; a < 32 * 1024; a += 64)
        c.access(a);
    EXPECT_EQ(c.misses(), misses_before) << "working set == capacity";
}

TEST(Cache, GeometryWithoutACompleteSetIsRejected)
{
    // Smaller than one set of ways, zero ways, zero-byte lines: each is
    // a configuration error reported before any set arithmetic.
    EXPECT_THROW(Cache(3 * 64, 4, 64), std::invalid_argument);
    EXPECT_THROW(Cache(32 * 1024, 0, 64), std::invalid_argument);
    EXPECT_THROW(Cache(32 * 1024, 4, 0), std::invalid_argument);
    EXPECT_THROW(Cache(2 * 64, 4, 64), std::invalid_argument);
    EXPECT_NO_THROW(Cache(4 * 64, 4, 64));
}

TEST(Cache, GeometryThatIsNotAPowerOfTwoIsRejected)
{
    // Sets are indexed with shifts and masks.
    EXPECT_THROW(Cache(48 * 1024, 4, 64), std::invalid_argument); // size
    EXPECT_THROW(Cache(24 * 1024, 3, 64), std::invalid_argument); // ways
    EXPECT_THROW(Cache(32 * 1024, 6, 64), std::invalid_argument); // ways
    EXPECT_THROW(Cache(32 * 1024, 4, 48), std::invalid_argument); // line
    EXPECT_THROW(Cache(3 * 128, 1, 128), std::invalid_argument);  // size
    EXPECT_NO_THROW(Cache(64, 1, 64));
    EXPECT_NO_THROW(Cache(8 * 1024, 2, 256));
}

// --- Lock-step against a reference model ------------------------------

/**
 * The cache model in its plainest form, the reference Cache is held
 * to: div/mod indexing, a valid bit per way, a scan of the whole set
 * on every access and the original victim loop.  Keep it naive.
 */
class RefCache
{
  public:
    RefCache(u64 size_bytes, u32 ways, u64 line_bytes = 64)
        : lineBytes(line_bytes), numSets(size_bytes / (ways * line_bytes)),
          ways(ways), sets(numSets * ways)
    {
    }

    bool
    access(u64 addr)
    {
        ++tick;
        u64 line = addr / lineBytes;
        u64 set = line % numSets;
        u64 tag = line / numSets;
        Way *base = &sets[set * ways];
        for (u32 w = 0; w < ways; ++w) {
            if (base[w].valid && base[w].tag == tag) {
                base[w].lru = tick;
                ++hits;
                return true;
            }
        }
        // Miss: fill into the LRU way.
        Way *victim = base;
        for (u32 w = 1; w < ways; ++w) {
            if (!base[w].valid || base[w].lru < victim->lru)
                victim = &base[w];
        }
        victim->valid = true;
        victim->tag = tag;
        victim->lru = tick;
        ++misses;
        return false;
    }

    void
    flush()
    {
        for (Way &w : sets)
            w.valid = false;
    }

    /** The (tag, LRU stamp) of each valid way of @p set, sorted. */
    std::vector<std::pair<u64, u64>>
    contents(u64 set) const
    {
        std::vector<std::pair<u64, u64>> out;
        for (u32 w = 0; w < ways; ++w) {
            const Way &way = sets[set * ways + w];
            if (way.valid)
                out.emplace_back(way.tag, way.lru);
        }
        std::sort(out.begin(), out.end());
        return out;
    }

    u64 tick = 0;
    u64 hits = 0;
    u64 misses = 0;

  private:
    struct Way
    {
        u64 tag = 0;
        bool valid = false;
        u64 lru = 0;
    };

    u64 lineBytes;
    u64 numSets;
    u32 ways;
    std::vector<Way> sets;
};

/** CacheHierarchy's reference: one L1 then L2 lookup per line. */
struct RefHierarchy
{
    HitLevel
    access(u64 addr, u64 size, Access kind)
    {
        HitLevel worst = HitLevel::L1;
        const u64 line = 64;
        u64 first = addr / line;
        u64 last = (addr + (size ? size - 1 : 0)) / line;
        for (u64 l = first; l <= last; ++l) {
            u64 a = l * line;
            RefCache &l1 = kind == Access::InstrFetch ? l1i : l1d;
            if (l1.access(a))
                continue;
            if (l2.access(a)) {
                if (worst == HitLevel::L1)
                    worst = HitLevel::L2;
                continue;
            }
            worst = HitLevel::Memory;
        }
        return worst;
    }

    RefCache l1i{32 * 1024, 4};
    RefCache l1d{32 * 1024, 4};
    RefCache l2{256 * 1024, 8};
};

/** CostModel's charging, with the instruction fetch stream walked one
 *  instruction per loop trip. */
struct RefCost
{
    explicit RefCost(bool asan = false) : asan(asan) {}

    void
    fetchAndCount(u64 n)
    {
        instructions += n;
        cycles += n;
        codeBytes += n * 4;
        for (u64 i = 0; i < n; ++i) {
            u64 fetch_pc = pc;
            pc += 4;
            if (pc >= 0x120000000 + codeFootprint)
                pc = 0x120000000;
            if ((fetch_pc & 63) == 0) {
                HitLevel lvl = h.access(fetch_pc, 4, Access::InstrFetch);
                if (lvl == HitLevel::L2)
                    cycles += 10;
                else if (lvl == HitLevel::Memory)
                    cycles += 80;
            }
        }
    }

    void
    dataAccess(u64 va, u64 size, Access kind)
    {
        HitLevel lvl = h.access(va, size, kind);
        if (lvl == HitLevel::L2)
            cycles += 10;
        else if (lvl == HitLevel::Memory)
            cycles += 80;
    }

    void
    memOp(u64 va, u64 size, Access kind)
    {
        if (asan) {
            fetchAndCount(18);
            dataAccess((va >> 3) + 0x7fff8000, 1, Access::DataLoad);
        }
        fetchAndCount(1);
        dataAccess(va, size, kind);
    }

    void
    copyLoop(u64 src_va, u64 dst_va, u64 len)
    {
        u64 words = (len + 7) / 8;
        fetchAndCount(2 * words + 8);
        for (u64 off = 0; off < len; off += 64) {
            dataAccess(src_va + off, 8, Access::DataLoad);
            dataAccess(dst_va + off, 8, Access::DataStore);
        }
    }

    bool asan;
    RefHierarchy h;
    u64 instructions = 0;
    u64 cycles = 0;
    u64 codeBytes = 0;
    u64 pc = 0x120000000;
    u64 codeFootprint = 16 * 1024;
};

struct Geometry
{
    u64 size;
    u32 ways;
    u64 line;
};

void
PrintTo(const Geometry &g, std::ostream *os)
{
    *os << g.size << " bytes, " << g.ways << " ways of " << g.line
        << "-byte lines";
}

std::string
geometryName(const ::testing::TestParamInfo<Geometry> &info)
{
    const Geometry &g = info.param;
    return std::to_string(g.size) + "B_" + std::to_string(g.ways) + "way_" +
           std::to_string(g.line) + "Bline";
}

/** Seeded address streams: sequential 8-byte accesses, strides that
 *  land in one set or walk all of them, and random addresses with a
 *  hot subset, over a few times the capacity. */
std::vector<u64>
sequentialStream(u64 span)
{
    std::vector<u64> out;
    for (u64 a = 0x10000; a < 0x10000 + span; a += 8)
        out.push_back(a);
    return out;
}

std::vector<u64>
strideStream(const Geometry &g)
{
    std::vector<u64> out;
    u64 setSpan = g.size / g.ways;
    for (u64 stride : {g.line, g.line + 8, u64{520}, u64{4096}, setSpan,
                       setSpan + g.line, 2 * setSpan}) {
        for (u64 i = 0; i < 3000; ++i)
            out.push_back(0x200000 + (i % 700) * stride);
    }
    return out;
}

std::vector<u64>
randomStream(u64 seed, u64 span, std::size_t n)
{
    std::mt19937_64 rng(seed);
    std::vector<u64> out;
    for (std::size_t i = 0; i < n; ++i) {
        u64 r = rng();
        if (r % 4 == 0)
            out.push_back(0x400000 + (r >> 8) % 4096); // hot
        else
            out.push_back((r >> 8) % (4 * span));
    }
    return out;
}

class CacheReference : public ::testing::TestWithParam<Geometry>
{
  protected:
    /** Drive both models with @p addrs, comparing after every access;
     *  false after the first difference. */
    static bool
    lockStep(Cache &c, RefCache &ref, const std::vector<u64> &addrs,
             const char *phase)
    {
        for (u64 a : addrs) {
            bool hit = c.access(a);
            bool refHit = ref.access(a);
            if (hit != refHit || c.hits() != ref.hits ||
                c.misses() != ref.misses) {
                ADD_FAILURE() << phase << ": access 0x" << std::hex << a
                              << std::dec << " hit " << hit << " (ref "
                              << refHit << "), hits " << c.hits()
                              << " (ref " << ref.hits << "), misses "
                              << c.misses() << " (ref " << ref.misses
                              << ")";
                return false;
            }
            // Every access advances the clock exactly once.
            if (c.hits() + c.misses() != ref.tick) {
                ADD_FAILURE() << phase << ": clock moved apart";
                return false;
            }
        }
        return true;
    }
};

TEST_P(CacheReference, LockStepOverSeededStreams)
{
    const Geometry g = GetParam();
    Cache c(g.size, g.ways, g.line);
    RefCache ref(g.size, g.ways, g.line);
    ASSERT_TRUE(lockStep(c, ref, sequentialStream(3 * g.size), "seq"));
    std::vector<u64> strides = strideStream(g);
    ASSERT_TRUE(lockStep(c, ref, strides, "stride"));
    // A flush mid-stream empties every set; the clock runs on.  The
    // line accessed last before it misses.
    c.flush();
    ref.flush();
    ASSERT_TRUE(lockStep(c, ref, {strides.back()}, "flush"));
    ASSERT_TRUE(lockStep(c, ref, randomStream(1, g.size, 20000), "flush"));
    ASSERT_TRUE(lockStep(c, ref, sequentialStream(g.size / 2), "refill"));

    // A copy carries on exactly where its source was, independently.
    RefCache refCopy = ref;
    Cache copy = c;
    ASSERT_TRUE(lockStep(copy, refCopy, randomStream(2, g.size, 20000),
                         "copy"));
    ASSERT_TRUE(lockStep(c, ref, strideStream(g), "source after copy"));
    // Copy assignment replaces a cache of another geometry entirely.
    Cache assigned(64, 1, 64);
    assigned.access(0);
    assigned = c;
    ASSERT_TRUE(lockStep(assigned, ref, randomStream(3, g.size, 20000),
                         "assigned"));
}

TEST_P(CacheReference, LockStepThroughRepeatedFlushes)
{
    const Geometry g = GetParam();
    Cache c(g.size, g.ways, g.line);
    RefCache ref(g.size, g.ways, g.line);
    std::vector<u64> addrs = randomStream(4, g.size, 4000);
    for (int round = 0; round < 5; ++round) {
        std::vector<u64> part(addrs.begin() + round * 800,
                              addrs.begin() + (round + 1) * 800);
        ASSERT_TRUE(lockStep(c, ref, part, "round"));
        c.flush();
        ref.flush();
        ASSERT_TRUE(lockStep(c, ref, {part.back(), part.back()}, "again"));
    }
}

TEST_P(CacheReference, RecycledStorageStartsEmpty)
{
    // A cache built on the storage of a used one (the host pool and
    // malloc hand it back) sees none of the old lines.
    const Geometry g = GetParam();
    std::vector<u64> addrs = randomStream(5, g.size, 5000);
    {
        Cache used(g.size, g.ways, g.line);
        for (u64 a : addrs)
            used.access(a);
    }
    Cache c(g.size, g.ways, g.line);
    RefCache ref(g.size, g.ways, g.line);
    std::reverse(addrs.begin(), addrs.end());
    ASSERT_TRUE(lockStep(c, ref, addrs, "recycled"));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheReference,
    ::testing::Values(Geometry{32 * 1024, 4, 64},
                      Geometry{256 * 1024, 8, 64}, Geometry{4 * 64, 4, 64},
                      Geometry{1024, 1, 64}, Geometry{4096, 2, 128},
                      Geometry{64, 1, 64}),
    geometryName);

/** True when every CostModel result matches the reference's. */
::testing::AssertionResult
sameCost(CostModel &m, const RefCost &r)
{
    const CacheHierarchy &h = m.cache();
    const RefHierarchy &rh = r.h;
    u64 refL1 = rh.l1i.hits + rh.l1i.misses + rh.l1d.hits + rh.l1d.misses;
    if (m.instructions() == r.instructions && m.cycles() == r.cycles &&
        m.codeBytes() == r.codeBytes && h.l1iMisses() == rh.l1i.misses &&
        h.l1dMisses() == rh.l1d.misses && h.l2Misses() == rh.l2.misses &&
        h.l1Accesses() == refL1)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "instructions " << m.instructions() << " (ref "
           << r.instructions << "), cycles " << m.cycles() << " (ref "
           << r.cycles << "), l1i/l1d/l2 misses " << h.l1iMisses() << "/"
           << h.l1dMisses() << "/" << h.l2Misses() << " (ref "
           << rh.l1i.misses << "/" << rh.l1d.misses << "/" << rh.l2.misses
           << ")";
}

/** One seeded stream of charges: instruction runs of 1-200 (so the
 *  synthetic PC starts mid-line and wraps), loads and stores of 1-300
 *  bytes (many cross lines), and copy loops. */
::testing::AssertionResult
driveCost(CostModel &m, RefCost &r, u64 seed, int ops)
{
    std::mt19937_64 rng(seed);
    for (int i = 0; i < ops; ++i) {
        u64 x = rng();
        u64 va = (x >> 16) % (1u << 20);
        u64 size = 1 + (x >> 40) % 300;
        switch (x % 8) {
          case 0:
          case 1:
          case 2: {
            u64 n = 1 + (x >> 8) % 200;
            m.alu(n);
            r.fetchAndCount(n);
            break;
          }
          case 3:
            m.load(va & ~u64{7}, 8);
            r.memOp(va & ~u64{7}, 8, Access::DataLoad);
            break;
          case 4:
            m.load(va, size);
            r.memOp(va, size, Access::DataLoad);
            break;
          case 5:
            m.store(va, size);
            r.memOp(va, size, Access::DataStore);
            break;
          case 6:
            m.store(va & ~u64{7}, 8);
            r.memOp(va & ~u64{7}, 8, Access::DataStore);
            break;
          case 7:
            m.copyLoop(va, va + 0x80000, size * 4);
            r.copyLoop(va, va + 0x80000, size * 4);
            break;
        }
        ::testing::AssertionResult same = sameCost(m, r);
        if (!same)
            return same << " after op " << i << " of seed " << seed;
    }
    return ::testing::AssertionSuccess();
}

TEST(CostModelReference, EveryRunLengthFromEveryLineOffset)
{
    // n = 1..200 back to back: each run starts where the last one
    // ended, so starts cover every offset in a line, and the 40,200
    // instructions wrap the 16 KiB footprint nearly ten times.
    CostModel m(Abi::Mips64);
    RefCost r;
    for (int pass = 0; pass < 2; ++pass) {
        for (u64 n = 1; n <= 200; ++n) {
            m.alu(n);
            r.fetchAndCount(n);
            ASSERT_TRUE(sameCost(m, r)) << "n " << n << " pass " << pass;
        }
    }
    m.alu(0);
    r.fetchAndCount(0);
    EXPECT_TRUE(sameCost(m, r));
    // Short runs of one length, past the wrap twice: every phase of
    // the run against the line and footprint ends, the end included.
    for (u64 n : {1, 2, 3, 5, 16, 17}) {
        for (u64 i = 0; i < 2 * 16 * 1024 / 4 / n + 7; ++i) {
            m.alu(n);
            r.fetchAndCount(n);
            ASSERT_TRUE(sameCost(m, r)) << "n " << n << " run " << i;
        }
    }
}

TEST(CostModelReference, LockStepOverSeededCharges)
{
    for (bool asan : {false, true}) {
        SCOPED_TRACE(asan ? "asan" : "plain");
        CostModel m(Abi::CheriAbi, {.asanInstrumentation = asan});
        RefCost r(asan);
        ASSERT_TRUE(driveCost(m, r, 11, 4000));
        // A copy carries on exactly where its source was.
        CostModel copy = m;
        RefCost refCopy = r;
        ASSERT_TRUE(driveCost(copy, refCopy, 12, 4000));
        ASSERT_TRUE(driveCost(m, r, 13, 2000));
        // reset() clears in place: the state of a new model.
        m.reset();
        RefCost fresh(asan);
        EXPECT_EQ(m.instructions(), 0u);
        EXPECT_EQ(m.cache().l1Accesses(), 0u);
        ASSERT_TRUE(driveCost(m, fresh, 14, 4000));
    }
}

TEST(CostModelReference, SnapshotRoundTripMidStream)
{
    // A process's cost model saved mid-stream and restored into
    // another kernel carries on in lock step, and the restored
    // kernel saves the same bytes.
    Kernel kern;
    Process *proc = kern.spawn(Abi::CheriAbi, "cost-stream");
    CostModel &m = proc->cost();
    m.reset();
    RefCost r;
    ASSERT_TRUE(driveCost(m, r, 21, 3000));
    std::string err;
    std::vector<u8> image = snap::save(kern, &err);
    ASSERT_FALSE(image.empty()) << err;

    Kernel restored;
    ASSERT_TRUE(snap::restore(restored, image, &err)) << err;
    EXPECT_EQ(snap::save(restored, &err), image);
    Process *again = restored.findProcess(proc->pid());
    ASSERT_NE(again, nullptr);
    RefCost refCopy = r;
    ASSERT_TRUE(driveCost(again->cost(), refCopy, 22, 3000));
    // The source is untouched by the save.
    ASSERT_TRUE(driveCost(m, r, 22, 3000));
}

// --- The warm L1I: fetch in closed form after the first lap ---

/** Instructions from a reset to the fetch of the footprint's last line
 *  (line 255 starts at instruction 4080): the L1I is warm after it. */
constexpr u64 firstLapInsns = 16 * 1024 / 4 - 16 + 1;

/** Marks the start of a process's cost model in a saved image: the
 *  model follows the register file, which ends with x[31]. */
constexpr u64 costSentinel = 0x7e657e657e657e65ull;

/** A kernel holding one CheriABI process whose cost model, reset, the
 *  tests drive; x[31] holds costSentinel. */
struct CostKernel
{
    CostKernel()
    {
        proc = kern.spawn(Abi::CheriAbi, "cost-stream");
        proc->regs().x[31] = costSentinel;
        proc->cost().reset();
    }

    CostModel &cost() { return proc->cost(); }

    std::vector<u8>
    save()
    {
        std::string err;
        std::vector<u8> image = snap::save(kern, &err);
        EXPECT_FALSE(image.empty()) << err;
        return image;
    }

    Kernel kern;
    Process *proc;
};

/** Restore @p image into @p kern; the cost model of its process
 *  @p pid carries on from the saved one (null if the restore failed). */
CostModel *
restoredCost(Kernel &kern, const std::vector<u8> &image, u64 pid)
{
    std::string err;
    EXPECT_TRUE(snap::restore(kern, image, &err)) << err;
    Process *p = kern.findProcess(pid);
    return p ? &p->cost() : nullptr;
}

u64
le64At(const std::vector<u8> &img, size_t off)
{
    u64 v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<u64>(img[off + i]) << (8 * i);
    return v;
}

/**
 * True when the L1I that @p image holds for the costSentinel process
 * is the reference's: the same clock and counts, and per set the same
 * lines with the same LRU stamps.  This reads the stamps a warm L1I
 * writes out only when something asks for them.
 */
::testing::AssertionResult
sameL1I(const std::vector<u8> &img, const RefCost &r)
{
    u8 mark[8];
    for (int i = 0; i < 8; ++i)
        mark[i] = static_cast<u8>(costSentinel >> (8 * i));
    auto at = std::search(img.begin(), img.end(), mark, mark + 8);
    if (at == img.end())
        return ::testing::AssertionFailure() << "no cost sentinel";
    // x[31], the cost model's nine words, then the L1I: line size, set
    // count, ways (u32), tick, hits, misses, way count, and per set
    // its 17-byte way records {tag, valid, lru}.
    size_t l1i = static_cast<size_t>(at - img.begin()) + 8 + 72;
    const RefCache &ref = r.h.l1i;
    u64 tick = le64At(img, l1i + 20), hits = le64At(img, l1i + 28),
        misses = le64At(img, l1i + 36);
    if (tick != ref.tick || hits != ref.hits || misses != ref.misses)
        return ::testing::AssertionFailure()
               << "L1I tick/hits/misses " << tick << "/" << hits << "/"
               << misses << " (ref " << ref.tick << "/" << ref.hits << "/"
               << ref.misses << ")";
    for (u64 set = 0; set < 128; ++set) {
        std::vector<std::pair<u64, u64>> ways;
        for (u64 w = 0; w < 4; ++w) {
            size_t rec = l1i + 52 + 17 * (4 * set + w);
            if (img[rec + 8])
                ways.emplace_back(le64At(img, rec), le64At(img, rec + 9));
        }
        std::sort(ways.begin(), ways.end());
        if (ways != ref.contents(set))
            return ::testing::AssertionFailure()
                   << "L1I set " << set << " differs from the reference";
    }
    return ::testing::AssertionSuccess();
}

TEST(WarmL1I, EngagesAtTheLastFootprintLine)
{
    CostModel m(Abi::Mips64);
    RefCost r;
    for (u64 i = 1; i <= firstLapInsns + 40; ++i) {
        m.alu(1);
        r.fetchAndCount(1);
        ASSERT_EQ(m.instructionCacheWarm(), i >= firstLapInsns) << i;
        ASSERT_TRUE(sameCost(m, r)) << "instruction " << i;
    }
    EXPECT_EQ(r.h.l1i.misses, 256u);
}

TEST(WarmL1I, ManyLapsMatchTheReference)
{
    // Runs up to several laps long, and loads and stores that never
    // reach the L1I, compared only every few dozen charges so the warm
    // hits pile up between the reads that settle them.
    CostModel m(Abi::CheriAbi);
    RefCost r;
    std::mt19937_64 rng(31);
    const u64 lens[] = {1, 2, 15, 16, 17, 120, 4095, 4096, 4097, 30011};
    for (int i = 0; i < 3000; ++i) {
        u64 x = rng();
        if (x % 5 == 0) {
            u64 va = (x >> 20) % (1u << 20);
            m.load(va, 8);
            r.memOp(va, 8, Access::DataLoad);
        } else {
            u64 n = x % 3 == 0 ? lens[(x >> 8) % 10] : 1 + (x >> 8) % 200;
            m.alu(n);
            r.fetchAndCount(n);
        }
        if (i % 37 == 0) {
            ASSERT_TRUE(sameCost(m, r)) << "charge " << i;
        }
    }
    EXPECT_TRUE(m.instructionCacheWarm());
    EXPECT_GT(r.instructions, 200 * 16 * 1024 / 4);
    EXPECT_EQ(r.h.l1i.misses, 256u);
    EXPECT_TRUE(sameCost(m, r));
}

TEST(WarmL1I, AFetchOfAnyLengthIsOneStep)
{
    // A per-line loop would step 2^36 lines here.
    CostModel m(Abi::CheriAbi);
    m.alu(firstLapInsns + 3);
    ASSERT_TRUE(m.instructionCacheWarm());
    u64 accesses = m.cache().l1Accesses();
    u64 cycles = m.cycles();
    m.alu(u64{1} << 40);
    EXPECT_EQ(m.cache().l1Accesses(), accesses + (u64{1} << 36));
    EXPECT_EQ(m.cycles(), cycles + (u64{1} << 40));
    EXPECT_EQ(m.cache().l2Misses(), 256u);
    // The pc came back to where it was: the next fetches match a model
    // that never ran the long one.
    CostModel n(Abi::CheriAbi);
    n.alu(firstLapInsns + 3);
    m.alu(100);
    n.alu(100);
    EXPECT_EQ(m.cache().l1Accesses() - n.cache().l1Accesses(),
              u64{1} << 36);
}

TEST(WarmL1I, CopiesAndImagesAroundTheFirstLap)
{
    // Copies and images taken at each step from just before the L1I
    // is warm to just after the pc first wraps carry on in lock step,
    // and each image holds the reference's L1I.
    CostKernel k;
    RefCost r;
    k.cost().alu(firstLapInsns - 3);
    r.fetchAndCount(firstLapInsns - 3);
    for (u64 i = firstLapInsns - 3; i <= 16 * 1024 / 4 + 2; ++i) {
        SCOPED_TRACE("instruction " + std::to_string(i));
        ASSERT_EQ(k.cost().instructionCacheWarm(), i >= firstLapInsns);
        std::vector<u8> image = k.save();
        ASSERT_TRUE(sameL1I(image, r));
        Kernel restored;
        CostModel *again = restoredCost(restored, image, k.proc->pid());
        ASSERT_NE(again, nullptr);
        EXPECT_EQ(again->instructionCacheWarm(), i >= firstLapInsns);
        CostModel copy = k.cost();
        RefCost refCopy = r;
        RefCost refAgain = r;
        ASSERT_TRUE(driveCost(copy, refCopy, 40 + i, 300));
        ASSERT_TRUE(driveCost(*again, refAgain, 40 + i, 300));
        k.cost().alu(1);
        r.fetchAndCount(1);
    }
}

TEST(WarmL1I, ResetAfterWarmUpWarmsUpAgain)
{
    CostModel m(Abi::CheriAbi);
    m.alu(20 * 16 * 1024);
    ASSERT_TRUE(m.instructionCacheWarm());
    m.reset();
    EXPECT_FALSE(m.instructionCacheWarm());
    EXPECT_EQ(m.cache().l1Accesses(), 0u);
    RefCost r;
    for (u64 n : {firstLapInsns - 1, u64{1}, u64{3 * 4096 + 5}}) {
        m.alu(n);
        r.fetchAndCount(n);
        ASSERT_TRUE(sameCost(m, r));
    }
    EXPECT_TRUE(m.instructionCacheWarm());
    EXPECT_EQ(r.h.l1i.misses, 256u);
    ASSERT_TRUE(driveCost(m, r, 51, 2000));
}

TEST(WarmL1I, RestoredWarmImageStaysInClosedForm)
{
    // Saved with warm hits pending, restored warm, and still in lock
    // step after many more laps; both kernels then save the same bytes.
    CostKernel k;
    RefCost r;
    ASSERT_TRUE(driveCost(k.cost(), r, 61, 2000));
    k.cost().alu(5 * 4096 + 9);
    r.fetchAndCount(5 * 4096 + 9);
    ASSERT_TRUE(k.cost().instructionCacheWarm());
    std::vector<u8> image = k.save();
    ASSERT_TRUE(sameL1I(image, r));
    Kernel restored;
    CostModel *again = restoredCost(restored, image, k.proc->pid());
    ASSERT_NE(again, nullptr);
    ASSERT_TRUE(again->instructionCacheWarm());
    RefCost refAgain = r;
    // A CheriABI syscall with three pointer arguments: 120 + 3 * 3.
    for (CostModel *m : {&k.cost(), again}) {
        m->alu(7 * 4096 + 33);
        m->syscall(3);
    }
    for (RefCost *ref : {&r, &refAgain}) {
        ref->fetchAndCount(7 * 4096 + 33);
        ref->fetchAndCount(120 + 9);
    }
    std::string err;
    std::vector<u8> afterRestore = snap::save(restored, &err);
    EXPECT_EQ(afterRestore, k.save());
    EXPECT_TRUE(sameL1I(afterRestore, refAgain));
    ASSERT_TRUE(driveCost(*again, refAgain, 62, 2000));
    ASSERT_TRUE(driveCost(k.cost(), r, 62, 2000));
}

TEST(Hierarchy, L2CatchesL1Misses)
{
    CacheHierarchy h;
    // Touch 64 KiB: exceeds L1D (32 KiB) but fits in L2 (256 KiB).
    for (u64 a = 0; a < 64 * 1024; a += 64)
        h.access(a, 8, Access::DataLoad);
    u64 l2_before = h.l2Misses();
    for (u64 a = 0; a < 64 * 1024; a += 64)
        h.access(a, 8, Access::DataLoad);
    EXPECT_EQ(h.l2Misses(), l2_before)
        << "second pass must hit in L2 at worst";
    EXPECT_GT(h.l1dMisses(), 0u);
}

TEST(CostModel, PointerSizeByAbi)
{
    EXPECT_EQ(CostModel(Abi::Mips64).pointerSize(), 8u);
    EXPECT_EQ(CostModel(Abi::CheriAbi).pointerSize(), 16u);
}

TEST(CostModel, InstructionsAccumulate)
{
    CostModel m(Abi::Mips64);
    m.alu(10);
    m.load(0x1000, 8);
    m.store(0x1008, 8);
    EXPECT_EQ(m.instructions(), 12u);
    EXPECT_GE(m.cycles(), m.instructions());
}

TEST(CostModel, CapManipFreeOnMips)
{
    CostModel mips(Abi::Mips64);
    CostModel cheri(Abi::CheriAbi);
    mips.capManip(5);
    cheri.capManip(5);
    EXPECT_EQ(mips.instructions(), 0u);
    EXPECT_EQ(cheri.instructions(), 5u);
}

TEST(CostModel, GotLoadClcImmediateEffect)
{
    CostModel small_imm(Abi::CheriAbi, {.largeClcImmediate = false});
    CostModel large_imm(Abi::CheriAbi, {.largeClcImmediate = true});
    CostModel mips(Abi::Mips64);
    small_imm.gotLoad(0x500000);
    large_imm.gotLoad(0x500000);
    mips.gotLoad(0x500000);
    EXPECT_EQ(small_imm.instructions(), 3u);
    EXPECT_EQ(large_imm.instructions(), 1u);
    EXPECT_EQ(mips.instructions(), 1u);
    EXPECT_GT(small_imm.codeBytes(), large_imm.codeBytes());
}

TEST(CostModel, LegacySyscallPaysCapConstruction)
{
    CostModel mips(Abi::Mips64);
    CostModel cheri(Abi::CheriAbi);
    // select(2) passes four pointer arguments (paper section 5.2).
    mips.syscall(4);
    cheri.syscall(4);
    EXPECT_GT(mips.instructions(), cheri.instructions())
        << "CheriABI should be cheaper when many pointers cross the "
           "syscall boundary";
    // With zero pointer args the ABIs tie.
    CostModel mips0(Abi::Mips64), cheri0(Abi::CheriAbi);
    mips0.syscall(0);
    cheri0.syscall(0);
    EXPECT_EQ(mips0.instructions(), cheri0.instructions());
}

TEST(CostModel, ContextSwitchCostsMoreUnderCheriAbi)
{
    CostModel mips(Abi::Mips64);
    CostModel cheri(Abi::CheriAbi);
    for (int i = 0; i < 100; ++i) {
        mips.contextSwitch();
        cheri.contextSwitch();
    }
    EXPECT_GE(cheri.cycles(), mips.cycles())
        << "capability register file is twice as wide";
}

TEST(CostModel, AsanInstrumentationMultipliesAccessCost)
{
    CostModel plain(Abi::Mips64);
    CostModel asan(Abi::Mips64, {.asanInstrumentation = true});
    for (u64 i = 0; i < 1000; ++i) {
        plain.load(0x10000 + i * 8, 8);
        asan.load(0x10000 + i * 8, 8);
    }
    EXPECT_GT(asan.instructions(), 3 * plain.instructions());
}

TEST(CostModel, SpillsModelSeparateCapRegFile)
{
    CostModel mips(Abi::Mips64);
    CostModel cheri(Abi::CheriAbi);
    mips.spills(0x7000, 4, 0);
    cheri.spills(0x7000, 4, 0);
    EXPECT_GT(mips.instructions(), cheri.instructions());
}

TEST(CostModel, ResetClearsEverything)
{
    CostModel m(Abi::CheriAbi);
    m.alu(100);
    m.load(0x1000, 16);
    m.reset();
    EXPECT_EQ(m.instructions(), 0u);
    EXPECT_EQ(m.cycles(), 0u);
    EXPECT_EQ(m.l2Misses(), 0u);
}

TEST(Regs, StackAliasConventionalRegister)
{
    ThreadRegs regs;
    regs.stack() = Capability::root();
    EXPECT_EQ(regs.c[regStack], Capability::root());
}

// An odd size no other test allocates, so blocks the pool already
// holds from earlier tests (cache arrays) cannot interfere.
constexpr std::size_t poolTestBytes = hostpool::minBytes + 48;

TEST(HostPool, ReleasedLargeBlockIsHandedOutAgain)
{
    void *p = hostpool::alloc(poolTestBytes);
    hostpool::release(p, poolTestBytes);
    void *q = hostpool::alloc(poolTestBytes);
    EXPECT_EQ(q, p);
    hostpool::release(q, poolTestBytes);
}

TEST(HostPool, BlocksAreReusedOnlyAtTheirOwnSize)
{
    void *p = hostpool::alloc(poolTestBytes);
    hostpool::release(p, poolTestBytes);
    // p is held by the pool, so neither a different size nor malloc
    // can hand it out.
    void *other = hostpool::alloc(poolTestBytes + 16);
    EXPECT_NE(other, p);
    EXPECT_EQ(hostpool::alloc(poolTestBytes), p);
    hostpool::release(other, poolTestBytes + 16);
    hostpool::release(p, poolTestBytes);
}

TEST(HostPool, HoldsAtMostMaxBytes)
{
    constexpr std::size_t n = hostpool::maxBytes / poolTestBytes + 2;
    std::vector<void *> blocks;
    for (std::size_t i = 0; i < n; ++i)
        blocks.push_back(hostpool::alloc(poolTestBytes));
    for (void *p : blocks)
        hostpool::release(p, poolTestBytes);
    // The pool kept a prefix of the released blocks, up to its cap
    // (less what it already holds), and hands it back newest first.
    void *first = hostpool::alloc(poolTestBytes);
    auto at = std::find(blocks.begin(), blocks.end(), first);
    ASSERT_NE(at, blocks.end());
    std::size_t kept = static_cast<std::size_t>(at - blocks.begin()) + 1;
    EXPECT_LE(kept * poolTestBytes, hostpool::maxBytes);
    std::vector<void *> again{first};
    for (std::size_t i = 1; i < kept; ++i) {
        again.push_back(hostpool::alloc(poolTestBytes));
        EXPECT_EQ(again.back(), blocks[kept - 1 - i]);
    }
    for (void *p : again)
        hostpool::release(p, poolTestBytes);
}

TEST(HostPool, ReusedCacheStartsEmpty)
{
    {
        Cache c(256 * 1024, 8);
        for (u64 a = 0; a < 256 * 1024; a += 64)
            c.access(a);
    }
    // Same geometry: the new cache's arrays are the old one's storage.
    Cache c(256 * 1024, 8);
    EXPECT_FALSE(c.access(0));
    EXPECT_EQ(c.hits(), 0u);
}

/**
 * Property: a pointer-chasing working set costs more cycles under
 * CheriABI once the 8-byte-pointer version fits in cache but the
 * 16-byte-pointer version does not — the mechanism behind Figure 4's
 * overhead on pointer-dense workloads.
 */
class PointerDensityProperty : public ::testing::TestWithParam<u64>
{
};

TEST_P(PointerDensityProperty, WidePointersRaiseCachePressure)
{
    u64 num_ptrs = GetParam();
    auto run = [&](Abi abi) {
        CostModel m(abi);
        u64 stride = m.pointerSize();
        for (int pass = 0; pass < 8; ++pass) {
            for (u64 i = 0; i < num_ptrs; ++i)
                m.load(0x100000 + i * stride, stride);
        }
        return m;
    };
    CostModel mips = run(Abi::Mips64);
    CostModel cheri = run(Abi::CheriAbi);
    EXPECT_EQ(mips.instructions(), cheri.instructions());
    EXPECT_GE(cheri.cycles(), mips.cycles());
    if (num_ptrs * 16 > 64 * 1024) {
        EXPECT_GT(cheri.cycles(), mips.cycles())
            << "doubling pointer footprint should cost cycles once the "
               "working set spills a cache level";
    }
}

INSTANTIATE_TEST_SUITE_P(WorkingSets, PointerDensityProperty,
                         ::testing::Values(64, 1024, 8192, 65536));

} // namespace
} // namespace cheri
