/**
 * @file
 * Tests for the unified memory-access path (mem/access.h): software-TLB
 * coherence across every invalidation source, tag preservation through
 * the fast path, decode-generation behavior, the page-chunked string
 * reader, and the kernel-level consumers (copyinstr, fork).
 */

#include <gtest/gtest.h>

#include "machine/cost_model.h"
#include "mem/access.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace cheri
{
namespace
{

using test::GuestSystem;

class AccessTest : public ::testing::Test
{
  protected:
    PhysMem phys;
    SwapDevice swap;
    AddressSpace as{phys, swap, 1};
    MemAccess mem{as};

    u64
    mapAnon(u64 len, u32 prot = PROT_READ | PROT_WRITE)
    {
        u64 va = as.map(0, len, prot, MappingKind::Data);
        EXPECT_NE(va, 0u);
        return va;
    }

    /** Prime the dTLB entry for @p va with one read. */
    void
    prime(u64 va)
    {
        u8 b = 0;
        ASSERT_FALSE(mem.read(va, &b, 1).has_value());
    }
};

TEST_F(AccessTest, HitAfterMissMatchesWalkPath)
{
    u64 va = mapAnon(pageSize);
    u64 v = 0x1122334455667788;
    ASSERT_FALSE(mem.write(va + 64, &v, 8).has_value());

    u64 via_tlb = 0, via_walk = 0;
    ASSERT_FALSE(mem.read(va + 64, &via_tlb, 8).has_value());
    ASSERT_FALSE(as.readBytes(va + 64, &via_walk, 8).has_value());
    EXPECT_EQ(via_tlb, v);
    EXPECT_EQ(via_walk, v);

    // The second access to the same page must be a hit.
    u64 misses = mem.stats().dataMisses;
    ASSERT_FALSE(mem.read(va + 128, &via_tlb, 8).has_value());
    EXPECT_EQ(mem.stats().dataMisses, misses);
    EXPECT_GT(mem.stats().dataHits, 0u);
}

TEST_F(AccessTest, UnmapInvalidatesCachedTranslation)
{
    u64 va = mapAnon(pageSize);
    prime(va);
    ASSERT_TRUE(as.unmap(va, pageSize));
    u8 b = 0;
    EXPECT_TRUE(mem.read(va, &b, 1).has_value());
}

TEST_F(AccessTest, RemapAfterUnmapServesTheNewFrame)
{
    u64 va = mapAnon(pageSize);
    u64 marker = 0xDEAD;
    ASSERT_FALSE(mem.write(va, &marker, 8).has_value());
    ASSERT_TRUE(as.unmap(va, pageSize));
    ASSERT_EQ(as.map(va, pageSize, PROT_READ | PROT_WRITE,
                     MappingKind::Data, /*fixed=*/true),
              va);
    // A stale TLB entry would resurrect the old frame's contents; the
    // fresh mapping must read demand-zero.
    u64 got = ~u64{0};
    ASSERT_FALSE(mem.read(va, &got, 8).has_value());
    EXPECT_EQ(got, 0u);
}

TEST_F(AccessTest, MprotectDropsCachedWritePermission)
{
    u64 va = mapAnon(pageSize);
    u64 v = 1;
    ASSERT_FALSE(mem.write(va, &v, 8).has_value()); // cached writable
    ASSERT_TRUE(as.protect(va, pageSize, PROT_READ));
    EXPECT_TRUE(mem.write(va, &v, 8).has_value());
    // Reads still work, and re-enabling write restores the fast path.
    ASSERT_FALSE(mem.read(va, &v, 8).has_value());
    ASSERT_TRUE(as.protect(va, pageSize, PROT_READ | PROT_WRITE));
    EXPECT_FALSE(mem.write(va, &v, 8).has_value());
}

TEST_F(AccessTest, ForkCowNeverWritesTheSharedFrame)
{
    u64 va = mapAnon(pageSize);
    u64 before = 0xAAAA;
    ASSERT_FALSE(mem.write(va, &before, 8).has_value());

    std::unique_ptr<AddressSpace> child = as.forkCopy(2);
    MemAccess child_mem(*child);

    // The parent's cached writable entry was invalidated by forkCopy;
    // this write must COW-copy, not scribble on the shared frame.
    u64 after = 0xBBBB;
    ASSERT_FALSE(mem.write(va, &after, 8).has_value());

    u64 parent_sees = 0, child_sees = 0;
    ASSERT_FALSE(mem.read(va, &parent_sees, 8).has_value());
    ASSERT_FALSE(child_mem.read(va, &child_sees, 8).has_value());
    EXPECT_EQ(parent_sees, after);
    EXPECT_EQ(child_sees, before);
}

TEST_F(AccessTest, SwapOutInvalidatesAndSwapInPreservesData)
{
    u64 va = mapAnon(pageSize);
    u64 v = 0x5A5A5A5A;
    ASSERT_FALSE(mem.write(va, &v, 8).has_value());
    ASSERT_TRUE(as.swapOutPage(va));
    // The TLB held a raw Frame*; the frame is gone.  The next access
    // must miss, swap the page back in, and see the same bytes.
    u64 got = 0;
    ASSERT_FALSE(mem.read(va, &got, 8).has_value());
    EXPECT_EQ(got, v);
}

TEST_F(AccessTest, SwapRoundTripPreservesTagsThroughFastPath)
{
    u64 va = mapAnon(pageSize);
    Capability c = as.capForRange(va, pageSize, PROT_READ | PROT_WRITE);
    ASSERT_TRUE(c.tag());
    ASSERT_FALSE(mem.writeCap(va + capSize, c).has_value());
    ASSERT_TRUE(as.swapOutPage(va));
    Result<Capability> r = mem.readCap(va + capSize);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().tag());
    EXPECT_EQ(r.value(), c);
    EXPECT_EQ(as.verifyCapContainment(), 0u);
}

TEST_F(AccessTest, InstallFrameReplacesCachedTranslation)
{
    u64 va = mapAnon(pageSize);
    u64 old = 0x11;
    ASSERT_FALSE(mem.write(va, &old, 8).has_value());

    FrameRef shared = phys.allocFrame();
    u64 pattern = 0x77;
    shared->write(0, &pattern, 8);
    ASSERT_TRUE(as.installFrame(va, shared));

    u64 got = 0;
    ASSERT_FALSE(mem.read(va, &got, 8).has_value());
    EXPECT_EQ(got, pattern);
}

TEST_F(AccessTest, RevocationSweepIsVisibleThroughTheTlb)
{
    u64 va = mapAnon(pageSize);
    Capability c = as.capForRange(va, 64, PROT_READ | PROT_WRITE);
    ASSERT_FALSE(mem.writeCap(va, c).has_value());
    // Opening the epoch flushes every TLB; prime the read path inside
    // it so a stale cached view would be tempting after the sweep.
    EXPECT_EQ(as.beginSweepEpoch(1, false), std::vector<u64>{va});
    ASSERT_TRUE(mem.readCap(va).ok());
    AddressSpace::PageSweep swept =
        as.sweepPage(va, 1, [va](const Capability &cap) {
            return cap.base() >= va && cap.base() < va + 64;
        });
    as.endSweepEpoch();
    EXPECT_EQ(swept.revoked, 1u);
    u64 misses = mem.stats().dataMisses;
    Result<Capability> r = mem.readCap(va);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value().tag());
    EXPECT_EQ(mem.stats().dataMisses, misses + 1)
        << "the sweep must drop the page's cached translation";
}

TEST_F(AccessTest, CapRoundTripIsBitForBitOnTheHitPath)
{
    u64 va = mapAnon(pageSize);
    Capability c = as.capForRange(va + 256, 128, PROT_READ | PROT_WRITE);
    ASSERT_FALSE(mem.writeCap(va + 16, c).has_value());
    // First read may miss; second is guaranteed to hit.
    ASSERT_TRUE(mem.readCap(va + 16).ok());
    Result<Capability> r = mem.readCap(va + 16);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), c);
    EXPECT_TRUE(r.value().tag());
    EXPECT_EQ(r.value().base(), c.base());
    EXPECT_EQ(r.value().length(), c.length());
    EXPECT_EQ(r.value().perms(), c.perms());
    EXPECT_EQ(as.verifyCapContainment(), 0u);
}

TEST_F(AccessTest, ByteWriteThroughFastPathClearsTags)
{
    u64 va = mapAnon(pageSize);
    Capability c = as.capForRange(va, 64, PROT_READ | PROT_WRITE);
    ASSERT_FALSE(mem.writeCap(va, c).has_value());
    u8 junk = 0xFF;
    ASSERT_FALSE(mem.write(va + 3, &junk, 1).has_value());
    Result<Capability> r = mem.readCap(va);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value().tag());
}

TEST_F(AccessTest, FetchGenerationBumpsOnWritesToExecutablePages)
{
    u64 text = as.map(0, pageSize, PROT_READ | PROT_WRITE | PROT_EXEC,
                      MappingKind::Text);
    ASSERT_NE(text, 0u);
    u64 insn = 0;
    ASSERT_FALSE(mem.fetch(text, &insn, 8).has_value());
    u64 gen = mem.fetchGen();

    // Store to the executable page through the fast path: generation
    // must advance so decode caches re-fetch.
    u64 patched = 42;
    ASSERT_FALSE(mem.write(text, &patched, 8).has_value());
    EXPECT_GT(mem.fetchGen(), gen);

    // The same must hold for a store issued via the walk path (another
    // actor writing the same address space).
    gen = mem.fetchGen();
    ASSERT_FALSE(as.writeBytes(text, &patched, 8).has_value());
    EXPECT_GT(mem.fetchGen(), gen);

    // Writes to non-executable pages leave the generation alone.
    u64 data = mapAnon(pageSize);
    gen = mem.fetchGen();
    ASSERT_FALSE(mem.write(data, &patched, 8).has_value());
    EXPECT_EQ(mem.fetchGen(), gen);
}

TEST_F(AccessTest, FetchUsesTheInstructionTlb)
{
    u64 text = as.map(0, pageSize, PROT_READ | PROT_EXEC,
                      MappingKind::Text);
    ASSERT_NE(text, 0u);
    u64 insn = 0;
    ASSERT_FALSE(mem.fetch(text, &insn, 8).has_value());
    u64 misses = mem.stats().fetchMisses;
    ASSERT_FALSE(mem.fetch(text + 8, &insn, 8).has_value());
    EXPECT_EQ(mem.stats().fetchMisses, misses);
    EXPECT_GT(mem.stats().fetchHits, 0u);
}

TEST_F(AccessTest, ReadStringWithinAndAcrossPages)
{
    u64 va = mapAnon(2 * pageSize);
    const char short_str[] = "hello";
    ASSERT_FALSE(
        mem.write(va + 10, short_str, sizeof(short_str)).has_value());
    std::string out;
    u64 scanned = 0;
    EXPECT_EQ(mem.readString(va + 10, &out, 256, &scanned),
              MemAccess::StrRead::Ok);
    EXPECT_EQ(out, "hello");
    EXPECT_EQ(scanned, sizeof(short_str));

    // A string straddling the page boundary.
    std::string long_str(100, 'x');
    u64 start = va + pageSize - 50;
    ASSERT_FALSE(
        mem.write(start, long_str.c_str(), long_str.size() + 1)
            .has_value());
    EXPECT_EQ(mem.readString(start, &out, 256, &scanned),
              MemAccess::StrRead::Ok);
    EXPECT_EQ(out, long_str);
    EXPECT_EQ(scanned, long_str.size() + 1);
}

TEST_F(AccessTest, ReadStringReportsTooLongAndFault)
{
    u64 va = mapAnon(pageSize);
    std::string unterminated(64, 'y');
    ASSERT_FALSE(mem.write(va, unterminated.c_str(), unterminated.size())
                     .has_value());
    std::string out;
    EXPECT_EQ(mem.readString(va, &out, 32, nullptr),
              MemAccess::StrRead::TooLong);
    EXPECT_EQ(out, std::string(32, 'y'));

    // Fill the whole page with non-NUL bytes so the scan runs off the
    // end of the mapping mid-string.
    std::string page_fill(pageSize, 'z');
    ASSERT_FALSE(mem.write(va, page_fill.c_str(), pageSize).has_value());
    u64 scanned = 0;
    EXPECT_EQ(mem.readString(va + pageSize - 16, &out, 256, &scanned),
              MemAccess::StrRead::Fault);
    EXPECT_EQ(scanned, 16u);
    EXPECT_EQ(out, std::string(16, 'z'));
}

TEST_F(AccessTest, BindRetargetsAndDestructionDetaches)
{
    u64 va = mapAnon(pageSize);
    u64 v = 0xC0FFEE;
    ASSERT_FALSE(mem.write(va, &v, 8).has_value());

    auto other = std::make_unique<AddressSpace>(phys, swap, 7);
    u64 ova = other->map(0, pageSize, PROT_READ | PROT_WRITE,
                         MappingKind::Data);
    ASSERT_NE(ova, 0u);
    MemAccess roaming(as);
    prime(va);
    roaming.bind(*other);
    // All translations flushed; accesses now resolve in `other`.
    u64 got = 1;
    ASSERT_FALSE(roaming.read(ova, &got, 8).has_value());
    EXPECT_EQ(got, 0u);

    // Destroying the bound space must detach rather than dangle.
    other.reset();
    EXPECT_TRUE(roaming.read(ova, &got, 8).has_value());
    EXPECT_EQ(roaming.space(), nullptr);
}

/** Deterministic LCG so the stress run is reproducible. */
struct Lcg
{
    u64 s;
    u64 next() { return s = s * 6364136223846793005ull + 1442695040888963407ull; }
};

TEST_F(AccessTest, RandomizedStressAgainstWalkGroundTruth)
{
    constexpr u64 kPages = 8;
    u64 va = mapAnon(kPages * pageSize);
    std::vector<u8> shadow(kPages * pageSize, 0);
    Lcg rng{12345};

    for (int iter = 0; iter < 4000; ++iter) {
        u64 off = rng.next() % (kPages * pageSize - 16);
        switch (rng.next() % 8) {
          case 0: { // write through the walk path
            u64 v = rng.next();
            ASSERT_FALSE(as.writeBytes(va + off, &v, 8).has_value());
            std::memcpy(shadow.data() + off, &v, 8);
            break;
          }
          case 1:
          case 2: { // write through the TLB path
            u64 v = rng.next();
            ASSERT_FALSE(mem.write(va + off, &v, 8).has_value());
            std::memcpy(shadow.data() + off, &v, 8);
            break;
          }
          case 3: // evict a page under the TLB's feet
            as.swapOutPage(va + (off & ~pageMask));
            break;
          case 4: { // protection flip round trip
            u64 page = va + (off & ~pageMask);
            ASSERT_TRUE(as.protect(page, pageSize, PROT_READ));
            u64 v = 0;
            EXPECT_TRUE(mem.write(page, &v, 8).has_value());
            ASSERT_TRUE(
                as.protect(page, pageSize, PROT_READ | PROT_WRITE));
            break;
          }
          default: { // read back through both paths and compare
            u64 tlb_v = 0, walk_v = 0;
            ASSERT_FALSE(mem.read(va + off, &tlb_v, 8).has_value());
            ASSERT_FALSE(as.readBytes(va + off, &walk_v, 8).has_value());
            u64 want = 0;
            std::memcpy(&want, shadow.data() + off, 8);
            ASSERT_EQ(tlb_v, want) << "iter " << iter;
            ASSERT_EQ(walk_v, want) << "iter " << iter;
            break;
          }
        }
    }
    // Final sweep: every byte identical via both paths.
    std::vector<u8> got(kPages * pageSize);
    ASSERT_FALSE(mem.read(va, got.data(), got.size()).has_value());
    EXPECT_EQ(got, shadow);
    ASSERT_FALSE(as.readBytes(va, got.data(), got.size()).has_value());
    EXPECT_EQ(got, shadow);
}

/**
 * One address space with everything the access path reports to: its
 * own physical memory, fault injector, cost model and per-ABI counter
 * block.  Two rigs driven by the same operations, one through the
 * inline read()/write()/readCap() and one through the slow paths, must
 * agree on every observable after every step.
 */
struct Rig
{
    PhysMem phys;
    SwapDevice swap;
    FaultInjector inj;
    std::unique_ptr<AddressSpace> as =
        std::make_unique<AddressSpace>(phys, swap, 1);
    MemAccess mem{*as};
    CostModel cost{Abi::CheriAbi};
    std::array<u64, numTlbCounters> block{};
    std::vector<std::unique_ptr<AddressSpace>> children;
    const bool slow;

    explicit Rig(bool slow_path) : slow(slow_path)
    {
        phys.setFaultInjector(&inj);
        mem.setCostModel(&cost);
        mem.setCounterBlock(block.data());
    }

    CapCheck
    read(u64 va, void *buf, u64 len)
    {
        return slow ? mem.readSlow(va, buf, len) : mem.read(va, buf, len);
    }

    CapCheck
    write(u64 va, const void *buf, u64 len)
    {
        return slow ? mem.writeSlow(va, buf, len)
                    : mem.write(va, buf, len);
    }

    Result<Capability>
    readCap(u64 va)
    {
        return slow ? mem.readCapSlow(va) : mem.readCap(va);
    }
};

void
expectSameCounters(const Rig &fast, const Rig &slow)
{
    const MemAccess::Stats &f = fast.mem.stats(), &s = slow.mem.stats();
    EXPECT_EQ(f.dataHits, s.dataHits);
    EXPECT_EQ(f.dataMisses, s.dataMisses);
    EXPECT_EQ(f.fetchHits, s.fetchHits);
    EXPECT_EQ(f.fetchMisses, s.fetchMisses);
    EXPECT_EQ(f.invalidations, s.invalidations);
    EXPECT_EQ(fast.block, slow.block);
    EXPECT_EQ(fast.cost.dtlbAccesses(), slow.cost.dtlbAccesses());
    EXPECT_EQ(fast.cost.dtlbMisses(), slow.cost.dtlbMisses());
    EXPECT_EQ(fast.cost.cycles(), slow.cost.cycles());
    EXPECT_EQ(fast.mem.fetchGen(), slow.mem.fetchGen());
    for (FaultPoint p : {FaultPoint::DataBitFlip, FaultPoint::TagBitFlip,
                         FaultPoint::FrameAlloc}) {
        EXPECT_EQ(fast.inj.events(p), slow.inj.events(p));
        EXPECT_EQ(fast.inj.injected(p), slow.inj.injected(p));
    }
}

/** Every byte and tag of [va, va + len) in @p as, made readable. */
void
expectSameContents(AddressSpace &a, AddressSpace &b, u64 va, u64 len)
{
    const u32 rw = PROT_READ | PROT_WRITE;
    ASSERT_TRUE(a.protect(va, len, rw));
    ASSERT_TRUE(b.protect(va, len, rw));
    std::vector<u8> x(len), y(len);
    ASSERT_FALSE(a.readBytes(va, x.data(), len).has_value());
    ASSERT_FALSE(b.readBytes(va, y.data(), len).has_value());
    EXPECT_EQ(x, y);
    for (u64 g = va; g < va + len; g += capSize) {
        Result<Capability> ca = a.readCap(g), cb = b.readCap(g);
        ASSERT_TRUE(ca.ok() && cb.ok());
        ASSERT_EQ(ca.value().tag(), cb.value().tag()) << std::hex << g;
        ASSERT_EQ(ca.value(), cb.value()) << std::hex << g;
    }
}

TEST(AccessLockStep, InlinePathMatchesTheGeneralLoop)
{
    Rig fast(false), slow(true);
    Rig *rigs[] = {&fast, &slow};
    // 72 data pages, so indices 64-71 evict 0-7 from the direct-mapped
    // dTLB; plus no-access, write-only, executable and read-only pages.
    struct Region
    {
        u64 va, len;
        u32 prot;
    };
    const std::pair<u64, u32> shapes[] = {
        {72 * pageSize, PROT_READ | PROT_WRITE},
        {pageSize, PROT_NONE},
        {pageSize, PROT_WRITE},
        {2 * pageSize, PROT_READ | PROT_WRITE | PROT_EXEC},
        {pageSize, PROT_READ},
    };
    std::vector<Region> regions;
    for (auto [len, prot] : shapes) {
        MappingKind kind =
            prot & PROT_EXEC ? MappingKind::Text : MappingKind::Data;
        u64 va = fast.as->map(0, len, prot, kind);
        ASSERT_NE(va, 0u);
        ASSERT_EQ(slow.as->map(0, len, prot, kind), va);
        regions.push_back({va, len, prot});
    }

    Lcg rng{2024};
    u64 pid = 2;
    std::vector<u8> in(3 * pageSize), out_fast(in.size()),
        out_slow(in.size());
    for (int step = 0; step < 6000; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const Region &r = regions[rng.next() % regions.size()];
        // Offsets run up to 32 bytes past either end of the region.
        u64 va = r.va - 32 + rng.next() % (r.len + 64);
        u64 len;
        switch (rng.next() % 6) {
          case 0:
            len = 0;
            break;
          case 1: // crosses the next page boundary
            va = pageTrunc(va) + pageSize - 1 - rng.next() % 16;
            len = 2 + rng.next() % 64;
            break;
          case 2:
            len = pageSize + rng.next() % (2 * pageSize);
            break;
          default:
            len = u64{1} << (rng.next() % 5);
            break;
        }
        switch (rng.next() % 16) {
          case 0: case 1: case 2: case 3: case 4: case 5: { // load
            std::fill(out_fast.begin(), out_fast.end(), 0xEE);
            std::fill(out_slow.begin(), out_slow.end(), 0xEE);
            CapCheck a = fast.read(va, out_fast.data(), len);
            CapCheck b = slow.read(va, out_slow.data(), len);
            ASSERT_EQ(a, b);
            ASSERT_EQ(out_fast, out_slow);
            break;
          }
          case 6: case 7: case 8: case 9: { // store
            for (u64 i = 0; i < len; ++i)
                in[i] = static_cast<u8>(rng.next() >> 56);
            ASSERT_EQ(fast.write(va, in.data(), len),
                      slow.write(va, in.data(), len));
            break;
          }
          case 10: { // a tagged capability, for data stores to clear
            u64 at = va & ~(capSize - 1);
            for (Rig *g : rigs) {
                Capability c = g->as->capForRange(r.va, r.len,
                                                  PROT_READ | PROT_WRITE);
                (void)g->mem.writeCap(at, c);
            }
            break;
          }
          case 11: // fork: every private page turns copy-on-write
            if (fast.children.size() == 3) {
                fast.children.erase(fast.children.begin());
                slow.children.erase(slow.children.begin());
            }
            for (Rig *g : rigs)
                g->children.push_back(g->as->forkCopy(pid));
            ++pid;
            break;
          case 12:
            for (Rig *g : rigs)
                g->as->swapOutPage(pageTrunc(va));
            break;
          case 13: { // flip one page's protection, or restore it
            static const u32 prots[] = {PROT_NONE, PROT_READ, PROT_WRITE,
                                        PROT_READ | PROT_WRITE};
            u32 prot = rng.next() % 2 ? r.prot
                                      : prots[rng.next() % 4];
            u64 page = r.va + pageTrunc(rng.next() % r.len);
            for (Rig *g : rigs)
                ASSERT_TRUE(g->as->protect(page, pageSize, prot));
            break;
          }
          default: { // capability load, aligned or not
            u64 at = rng.next() % 4 ? va & ~(capSize - 1) : va;
            Result<Capability> a = fast.readCap(at);
            Result<Capability> b = slow.readCap(at);
            ASSERT_EQ(a.ok(), b.ok());
            if (a.ok()) {
                ASSERT_EQ(a.value().tag(), b.value().tag());
                ASSERT_EQ(a.value(), b.value());
            } else {
                ASSERT_EQ(a.fault(), b.fault());
            }
            break;
          }
        }
        expectSameCounters(fast, slow);
        if (HasFailure())
            return;
    }
    // Both paths took hits and misses, and reached the executable page.
    EXPECT_GT(fast.mem.stats().dataHits, 1000u);
    EXPECT_GT(fast.mem.stats().dataMisses, 100u);
    EXPECT_GT(fast.mem.fetchGen(), 100u);

    for (const Region &r : regions)
        expectSameContents(*fast.as, *slow.as, r.va, r.len);
    for (size_t i = 0; i < fast.children.size(); ++i) {
        for (const Region &r : regions)
            expectSameContents(*fast.children[i], *slow.children[i], r.va,
                               r.len);
    }

    // A detached access path: every access is a page fault, counted as
    // a miss, on both paths.
    u64 va = regions[0].va;
    for (Rig *g : rigs)
        g->as.reset();
    u64 v = 1;
    for (u64 len : {u64{0}, u64{8}, pageSize + 8}) {
        EXPECT_EQ(fast.read(va, &in[0], len), slow.read(va, &in[0], len));
        EXPECT_EQ(fast.write(va, &v, 8), slow.write(va, &v, 8));
    }
    EXPECT_EQ(fast.read(va, &v, 8), CapFault::PageFault);
    EXPECT_EQ(slow.read(va, &v, 8), CapFault::PageFault);
    EXPECT_EQ(fast.readCap(va).fault(), CapFault::PageFault);
    EXPECT_EQ(slow.readCap(va).fault(), CapFault::PageFault);
    expectSameCounters(fast, slow);
}

TEST(AccessLockStep, DisarmedProbeCountsEveryLoad)
{
    Rig rig(false);
    u64 va = rig.as->map(0, 80 * pageSize, PROT_READ | PROT_WRITE,
                         MappingKind::Data);
    ASSERT_NE(va, 0u);
    Lcg rng{7};
    u8 buf[64];
    u64 loads = 0;
    for (int i = 0; i < 5000; ++i) {
        u64 at = va + rng.next() % (80 * pageSize - sizeof(buf));
        u64 len = 1 + rng.next() % sizeof(buf);
        ASSERT_FALSE(rig.mem.read(at, buf, len).has_value());
        ++loads;
        // Empty accesses are not loads: no probe.
        ASSERT_FALSE(rig.mem.read(at, buf, 0).has_value());
    }
    EXPECT_EQ(rig.inj.events(FaultPoint::DataBitFlip), loads);
    EXPECT_EQ(rig.inj.injected(FaultPoint::DataBitFlip), 0u);
    EXPECT_EQ(rig.mem.stats().dataHits + rig.mem.stats().dataMisses,
              rig.cost.dtlbAccesses());
}

TEST(AccessLockStep, NthArmedLoadMachineChecksOnBothPaths)
{
    for (u64 nth : {u64{1}, u64{2}, u64{37}}) {
        Rig fast(false), slow(true);
        u64 va = 0;
        for (Rig *g : {&fast, &slow}) {
            va = g->as->map(0, 4 * pageSize, PROT_READ | PROT_WRITE,
                            MappingKind::Data);
            g->inj.failAfter(FaultPoint::DataBitFlip, nth);
        }
        for (u64 i = 1; i <= 2 * nth + 2; ++i) {
            u64 at = va + (i * 40) % (4 * pageSize - 8);
            u64 a = 0, b = 0;
            CapCheck ra = fast.read(at, &a, 8), rb = slow.read(at, &b, 8);
            ASSERT_EQ(ra, rb);
            if (i == nth)
                EXPECT_EQ(ra, CapFault::MachineCheck) << "load " << i;
            else
                EXPECT_FALSE(ra.has_value()) << "load " << i;
        }
        expectSameCounters(fast, slow);
        EXPECT_EQ(fast.inj.injected(FaultPoint::DataBitFlip), 1u);
    }
}

TEST(AccessLockStep, NthArmedTaggedCapLoadMachineChecksOnBothPaths)
{
    // Granules alternate tagged and untagged; only tagged loads probe
    // the injector, and exactly the nth of them machine-checks, its
    // tag cleared, on both paths.
    for (u64 nth : {u64{1}, u64{2}, u64{37}}) {
        Rig fast(false), slow(true);
        u64 va = 0;
        for (Rig *g : {&fast, &slow}) {
            va = g->as->map(0, 4 * pageSize, PROT_READ | PROT_WRITE,
                            MappingKind::Data);
            Capability c =
                g->as->capForRange(va, pageSize, PROT_READ | PROT_WRITE);
            for (u64 off = 0; off < 4 * pageSize; off += 2 * capSize)
                ASSERT_FALSE(g->mem.writeCap(va + off, c).has_value());
            g->inj.failAfter(FaultPoint::TagBitFlip, nth);
        }
        u64 tagged = 0;
        for (u64 i = 0; tagged < 2 * nth + 2; ++i) {
            u64 at = va + (i * 7 * capSize) % (4 * pageSize);
            bool isTagged = (at - va) % (2 * capSize) == 0;
            tagged += isTagged;
            Result<Capability> a = fast.readCap(at), b = slow.readCap(at);
            ASSERT_EQ(a.ok(), b.ok());
            if (isTagged && tagged == nth) {
                EXPECT_EQ(a.fault(), CapFault::MachineCheck) << "load " << i;
                EXPECT_EQ(b.fault(), CapFault::MachineCheck) << "load " << i;
                // The flipped tag stays flipped: a second load of the
                // granule returns the bytes, untagged.
                Result<Capability> again = fast.readCap(at);
                (void)slow.readCap(at);
                ASSERT_TRUE(again.ok());
                EXPECT_FALSE(again.value().tag());
                continue;
            }
            ASSERT_TRUE(a.ok()) << "load " << i;
            EXPECT_EQ(a.value(), b.value());
            EXPECT_EQ(a.value().tag(), isTagged);
        }
        expectSameCounters(fast, slow);
        EXPECT_EQ(fast.inj.injected(FaultPoint::TagBitFlip), 1u);
        EXPECT_EQ(fast.inj.events(FaultPoint::TagBitFlip), tagged);
    }
}

/** The kernel's flight recorder keeps fired decisions only: one armed
 *  data flip leaves exactly a decision and its machine check. */
TEST(AccessLockStep, NthArmedGuestLoadLeavesOneDecisionInTheRecorder)
{
    for (Abi abi : {Abi::Mips64, Abi::CheriAbi}) {
        GuestSystem sys{abi};
        GuestContext &ctx = *sys.ctx;
        GuestPtr buf = ctx.mmap(2 * pageSize);
        ctx.store<u64>(buf, 0, 5);
        const u64 nth = 5;
        const u64 recorded = sys.kern.flightRecorder().eventsRecorded();
        const u64 checks = sys.kern.counters().hardening.machineChecks;
        sys.kern.faultInjector().failAfter(FaultPoint::DataBitFlip, nth);
        u64 trapped_at = 0;
        for (u64 i = 1; i <= 2 * nth; ++i) {
            try {
                (void)ctx.load<u64>(buf, static_cast<s64>(i * 512));
            } catch (const CapTrap &t) {
                EXPECT_EQ(t.fault(), CapFault::MachineCheck);
                EXPECT_EQ(trapped_at, 0u);
                trapped_at = i;
            }
        }
        EXPECT_EQ(trapped_at, nth);
        EXPECT_EQ(sys.kern.counters().hardening.machineChecks, checks + 1);
        const auto &fr = sys.kern.flightRecorder();
        ASSERT_EQ(fr.eventsRecorded(), recorded + 2);
        std::vector<panic::Event> ev = fr.entries();
        ASSERT_GE(ev.size(), 2u);
        const panic::Event &decision = ev[ev.size() - 2];
        const panic::Event &check = ev.back();
        EXPECT_EQ(decision.kind, panic::EventKind::FaultDecision);
        EXPECT_EQ(decision.a, static_cast<u64>(FaultPoint::DataBitFlip));
        EXPECT_EQ(decision.b, 1u);
        EXPECT_EQ(check.kind, panic::EventKind::MachineCheck);
        EXPECT_EQ(check.a, buf.addr() + nth * 512);
        EXPECT_EQ(check.b, static_cast<u64>(FaultPoint::DataBitFlip));
    }
}

class AccessKernelBothAbis : public ::testing::TestWithParam<Abi>
{
  protected:
    GuestSystem sys{GetParam()};
    GuestContext &ctx() { return *sys.ctx; }
    Process &proc() { return *sys.proc; }
    Kernel &kern() { return sys.kern; }
};

TEST_P(AccessKernelBothAbis, CopyinstrAcrossPageBoundary)
{
    GuestPtr buf = ctx().mmap(2 * pageSize);
    std::string s(pageSize / 2 + 300, 'k');
    u64 start_off = pageSize - 100; // straddles the boundary
    ctx().write(buf + static_cast<s64>(start_off), s.c_str(),
                s.size() + 1);
    std::string out;
    UserPtr p = ctx().toUser(buf + static_cast<s64>(start_off));
    ASSERT_EQ(kern().copyinstr(proc(), p, &out, s.size() + 1), E_OK);
    EXPECT_EQ(out, s);
}

TEST_P(AccessKernelBothAbis, CopyinstrRangeExhaustionIsERange)
{
    GuestPtr buf = ctx().mmap(pageSize);
    std::string s(64, 'q');
    ctx().write(buf, s.c_str(), s.size() + 1);
    std::string out;
    EXPECT_EQ(kern().copyinstr(proc(), ctx().toUser(buf), &out, 16),
              E_RANGE);
}

TEST_P(AccessKernelBothAbis, ForkChildIsCowIsolatedThroughMemPath)
{
    GuestPtr buf = ctx().mmap(pageSize);
    u64 before = 0x1234;
    ctx().write(buf, &before, 8);

    Process *child = kern().fork(proc());
    ASSERT_NE(child, nullptr);

    u64 after = 0x5678;
    ctx().write(buf, &after, 8);

    u64 child_sees = 0;
    ASSERT_FALSE(
        child->mem().read(buf.addr(), &child_sees, 8).has_value());
    EXPECT_EQ(child_sees, before);
    u64 parent_sees = 0;
    ASSERT_FALSE(
        proc().mem().read(buf.addr(), &parent_sees, 8).has_value());
    EXPECT_EQ(parent_sees, after);
}

TEST_P(AccessKernelBothAbis, MetricsAccumulatePerAbiTlbCounters)
{
    obs::Metrics mx;
    kern().setMetrics(&mx);
    GuestPtr buf = ctx().mmap(pageSize);
    u64 v = 9;
    ctx().write(buf, &v, 8);
    ctx().read(buf, &v, 8);
    ctx().read(buf, &v, 8);

    Abi abi = GetParam();
    EXPECT_GT(mx.tlbCounter(abi, TlbDataHit) +
                  mx.tlbCounter(abi, TlbDataMiss),
              0u);
    EXPECT_GT(mx.tlbCounter(abi, TlbDataHit), 0u);

    std::string json = mx.toJson();
    EXPECT_NE(json.find("cheri.metrics.v9"), std::string::npos);
    EXPECT_NE(json.find("\"tlb\""), std::string::npos);
    EXPECT_NE(json.find("data_hits"), std::string::npos);
    kern().setMetrics(nullptr);
}

INSTANTIATE_TEST_SUITE_P(Abis, AccessKernelBothAbis,
                         ::testing::Values(Abi::Mips64, Abi::CheriAbi),
                         [](const auto &info) {
                             return info.param == Abi::CheriAbi
                                        ? "cheriabi"
                                        : "mips64";
                         });

} // namespace
} // namespace cheri
