/**
 * @file
 * Tests for tagged physical memory, address spaces (demand-zero, COW,
 * shared mappings), and tag-preserving swap with rederivation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "mem/mem_events.h"
#include "mem/phys_mem.h"
#include "mem/swap.h"
#include "mem/vm.h"
#include "rng_util.h"

namespace cheri
{
namespace
{

class MemTest : public ::testing::Test
{
  protected:
    PhysMem phys;
    SwapDevice swap;
    AddressSpace as{phys, swap, 1};

    u64
    mapAnon(u64 len, u32 prot = PROT_READ | PROT_WRITE)
    {
        u64 va = as.map(0, len, prot, MappingKind::Data);
        EXPECT_NE(va, 0u);
        return va;
    }

    Capability
    capFor(u64 va, u64 len)
    {
        return as.capForRange(va, len, PROT_READ | PROT_WRITE);
    }
};

TEST_F(MemTest, FrameDataWriteClearsTag)
{
    auto frame = phys.allocFrame();
    Capability c = Capability::root().setAddress(0x100).setBounds(16).value();
    frame->writeCap(0, c);
    EXPECT_TRUE(frame->tagAt(0));
    EXPECT_EQ(frame->readCap(0), c);
    // Overwrite one byte of the granule with data: tag must clear.
    u8 b = 0xFF;
    frame->write(7, &b, 1);
    EXPECT_FALSE(frame->tagAt(0));
    EXPECT_FALSE(frame->readCap(0).tag());
}

TEST_F(MemTest, FrameCopyPreservesTags)
{
    auto a = phys.allocFrame();
    Capability c = Capability::root().setAddress(0x200).setBounds(32).value();
    a->writeCap(16, c);
    auto b = phys.allocFrame();
    b->copyFrom(*a);
    EXPECT_TRUE(b->tagAt(16));
    EXPECT_EQ(b->readCap(16), c);
}

// The tag bitmap is scanned a word at a time; a bit-by-bit reference
// over random bitmaps must agree on every granule, on the visit order
// and on the count, word edges (granules 0, 63, 64, 255) included.
TEST_F(MemTest, TagScanMatchesBitByBitReference)
{
    std::mt19937_64 rng(7);
    auto capAt = [](u64 g) {
        return Capability::root().setAddress(0x1000 + g * 16).setBounds(16)
            .value();
    };
    for (unsigned round = 0; round < 200; ++round) {
        SCOPED_TRACE(round);
        auto frame = phys.allocFrame();
        std::vector<bool> ref(granulesPerPage);
        auto set = [&](u64 g) {
            frame->writeCap(g * capSize, capAt(g));
            ref[g] = true;
        };
        for (u64 g : {u64{0}, u64{63}, u64{64}, u64{255}}) {
            if (rng() % 2)
                set(g);
        }
        for (u64 n = rng() % 64; n > 0; --n)
            set(rng() % granulesPerPage);
        // Untag some: an untagged capability store, a clear, and a data
        // write that may span several granules and a word edge.
        for (u64 n = rng() % 8; n > 0; --n) {
            u64 g = rng() % granulesPerPage;
            switch (rng() % 3) {
            case 0:
                frame->writeCap(g * capSize, capAt(g).withoutTag());
                ref[g] = false;
                break;
            case 1:
                frame->clearTagAt(g * capSize + rng() % capSize);
                ref[g] = false;
                break;
            default: {
                u64 off = g * capSize + rng() % capSize;
                u64 len = std::min<u64>(1 + rng() % 80, pageSize - off);
                std::vector<u8> bytes(len, 0xA5);
                frame->write(off, bytes.data(), len);
                for (u64 k = off / capSize; k <= (off + len - 1) / capSize;
                     ++k)
                    ref[k] = false;
            }
            }
        }
        std::vector<u64> want;
        for (u64 g = 0; g < granulesPerPage; ++g) {
            EXPECT_EQ(frame->tagAt(g * capSize), ref[g]) << g;
            if (ref[g])
                want.push_back(g);
        }
        std::vector<u64> got;
        frame->forEachTagged([&](u64 off, const Capability &cap) {
            got.push_back(off / capSize);
            EXPECT_EQ(cap, capAt(off / capSize));
        });
        EXPECT_EQ(got, want);
        EXPECT_EQ(frame->taggedCount(), want.size());
        auto copy = phys.allocFrame();
        copy->copyFrom(*frame);
        std::vector<u64> copied;
        copy->forEachTagged(
            [&](u64 off, const Capability &) { copied.push_back(off / capSize); });
        EXPECT_EQ(copied, want);
        frame->clear();
        EXPECT_EQ(frame->taggedCount(), 0u);
    }
}

TEST_F(MemTest, DemandZeroPagesReadAsZero)
{
    u64 va = mapAnon(3 * pageSize);
    std::array<u8, 64> buf;
    buf.fill(0xAA);
    ASSERT_FALSE(as.readBytes(va + pageSize + 100, buf.data(), 64)
                     .has_value());
    for (u8 byte : buf)
        EXPECT_EQ(byte, 0);
    // Only touched pages become resident.
    EXPECT_EQ(as.residentPages(), 1u);
}

TEST_F(MemTest, ReadWriteRoundTripAcrossPages)
{
    u64 va = mapAnon(2 * pageSize);
    std::vector<u8> out(5000), in(5000);
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = static_cast<u8>(i * 7);
    ASSERT_FALSE(as.writeBytes(va + 100, out.data(), out.size())
                     .has_value());
    ASSERT_FALSE(as.readBytes(va + 100, in.data(), in.size()).has_value());
    EXPECT_EQ(in, out);
}

TEST_F(MemTest, UnmappedAccessPageFaults)
{
    u8 b;
    auto fault = as.readBytes(0x123456000, &b, 1);
    ASSERT_TRUE(fault.has_value());
    EXPECT_EQ(*fault, CapFault::PageFault);
}

TEST_F(MemTest, ProtectionIsEnforced)
{
    u64 va = mapAnon(pageSize, PROT_READ);
    u8 b = 1;
    EXPECT_FALSE(as.readBytes(va, &b, 1).has_value());
    EXPECT_TRUE(as.writeBytes(va, &b, 1).has_value());
    ASSERT_TRUE(as.protect(va, pageSize, PROT_READ | PROT_WRITE));
    EXPECT_FALSE(as.writeBytes(va, &b, 1).has_value());
}

TEST_F(MemTest, CapStoreLoadRoundTrip)
{
    u64 va = mapAnon(pageSize);
    Capability c = capFor(va, 64);
    ASSERT_FALSE(as.writeCap(va + 32, c).has_value());
    auto r = as.readCap(va + 32);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), c);
    EXPECT_TRUE(r.value().tag());
}

TEST_F(MemTest, MisalignedCapAccessFaults)
{
    u64 va = mapAnon(pageSize);
    auto r = as.readCap(va + 8);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.fault(), CapFault::AlignmentViolation);
}

TEST_F(MemTest, DataStoreOverCapClearsItsTag)
{
    u64 va = mapAnon(pageSize);
    Capability c = capFor(va, 64);
    ASSERT_FALSE(as.writeCap(va, c).has_value());
    u64 evil = 0xDEADBEEF;
    ASSERT_FALSE(as.writeBytes(va + 4, &evil, 8).has_value());
    auto r = as.readCap(va);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value().tag()) << "in-memory forgery must untag";
}

TEST_F(MemTest, MapFixedRefusesOverlapUnlessForced)
{
    u64 va = mapAnon(pageSize);
    EXPECT_EQ(as.map(va, pageSize, PROT_READ, MappingKind::Data, true), 0u);
    EXPECT_EQ(as.map(va, pageSize, PROT_READ, MappingKind::Data, true,
                     false, "", true),
              va);
}

TEST_F(MemTest, UnmapSplitsMappings)
{
    u64 va = mapAnon(4 * pageSize);
    ASSERT_TRUE(as.unmap(va + pageSize, pageSize));
    EXPECT_NE(as.findMapping(va), nullptr);
    EXPECT_EQ(as.findMapping(va + pageSize), nullptr);
    EXPECT_NE(as.findMapping(va + 2 * pageSize), nullptr);
    u8 b = 0;
    EXPECT_TRUE(as.readBytes(va + pageSize, &b, 1).has_value());
    EXPECT_FALSE(as.readBytes(va + 3 * pageSize, &b, 1).has_value());
}

TEST_F(MemTest, CapForRangeDerivesPermsFromProt)
{
    u64 va = mapAnon(pageSize, PROT_READ);
    Capability c = as.capForRange(va, pageSize, PROT_READ);
    EXPECT_TRUE(c.hasPerms(PERM_LOAD));
    EXPECT_FALSE(c.hasPerms(PERM_STORE));
    EXPECT_TRUE(c.hasPerms(PERM_SW_VMMAP));
    Capability nc = as.capForRange(va, pageSize, PROT_READ, false);
    EXPECT_FALSE(nc.hasPerms(PERM_SW_VMMAP));
}

TEST_F(MemTest, SwapRoundTripPreservesDataAndTags)
{
    u64 va = mapAnon(pageSize);
    Capability c = capFor(va, 128);
    u64 magic = 0x1122334455667788;
    ASSERT_FALSE(as.writeBytes(va + 200, &magic, 8).has_value());
    ASSERT_FALSE(as.writeCap(va + 256, c).has_value());
    ASSERT_TRUE(as.swapOutPage(va));
    EXPECT_EQ(as.residentPages(), 0u);
    EXPECT_EQ(swap.usedSlots(), 1u);
    // Touching the page swaps it back in.
    u64 got = 0;
    ASSERT_FALSE(as.readBytes(va + 200, &got, 8).has_value());
    EXPECT_EQ(got, magic);
    auto r = as.readCap(va + 256);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().tag()) << "swap must rederive capabilities";
    EXPECT_EQ(r.value().base(), c.base());
    EXPECT_EQ(r.value().top(), c.top());
    EXPECT_EQ(r.value().perms(), c.perms());
    EXPECT_EQ(swap.usedSlots(), 0u);
}

TEST_F(MemTest, NaiveSwapLosesTags)
{
    SwapDevice naive(SwapPolicy::Naive);
    AddressSpace as2(phys, naive, 2);
    u64 va = as2.map(0, pageSize, PROT_READ | PROT_WRITE,
                     MappingKind::Data);
    Capability c = as2.capForRange(va, 64, PROT_READ | PROT_WRITE);
    ASSERT_FALSE(as2.writeCap(va, c).has_value());
    ASSERT_TRUE(as2.swapOutPage(va));
    auto r = as2.readCap(va);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value().tag())
        << "without tag metadata, swap destroys capabilities";
    // The address survives as data, as on a real tag-less disk.
    EXPECT_EQ(r.value().address(), c.address());
}

TEST_F(MemTest, SwapRederivationCannotEscalate)
{
    // Craft a frame whose metadata claims kernel-range bounds; the user
    // root must refuse to rederive it.
    auto frame = phys.allocFrame();
    Capability bogus = Capability::root()
                           .setAddress(AddressSpace::userTop + 0x1000)
                           .setBounds(0x1000)
                           .value();
    frame->writeCap(0, bogus);
    u64 slot = swap.swapOut(*frame);
    auto fresh = phys.allocFrame();
    swap.swapIn(slot, *fresh, as.rederivationRoot());
    EXPECT_FALSE(fresh->readCap(0).tag())
        << "rederivation beyond the principal root must fail closed";
}

TEST_F(MemTest, ForkCopyIsCopyOnWrite)
{
    u64 va = mapAnon(pageSize);
    u64 parent_val = 0xAAAA;
    ASSERT_FALSE(as.writeBytes(va, &parent_val, 8).has_value());
    auto child = as.forkCopy(99);
    EXPECT_EQ(child->principal(), 99u);
    // Child sees parent data...
    u64 got = 0;
    ASSERT_FALSE(child->readBytes(va, &got, 8).has_value());
    EXPECT_EQ(got, parent_val);
    // ...but writes are private in both directions.
    u64 child_val = 0xBBBB;
    ASSERT_FALSE(child->writeBytes(va, &child_val, 8).has_value());
    ASSERT_FALSE(as.readBytes(va, &got, 8).has_value());
    EXPECT_EQ(got, parent_val);
    u64 parent_val2 = 0xCCCC;
    ASSERT_FALSE(as.writeBytes(va, &parent_val2, 8).has_value());
    ASSERT_FALSE(child->readBytes(va, &got, 8).has_value());
    EXPECT_EQ(got, child_val);
}

TEST_F(MemTest, ForkPreservesCapTagsAcrossCow)
{
    u64 va = mapAnon(pageSize);
    Capability c = capFor(va, 64);
    ASSERT_FALSE(as.writeCap(va, c).has_value());
    auto child = as.forkCopy(100);
    // Force the COW copy by writing elsewhere in the page.
    u8 b = 1;
    ASSERT_FALSE(child->writeBytes(va + 128, &b, 1).has_value());
    auto r = child->readCap(va);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().tag()) << "COW copies preserve tags in-kernel";
}

TEST_F(MemTest, SharedMappingsAliasFrames)
{
    u64 va = as.map(0, pageSize, PROT_READ | PROT_WRITE,
                    MappingKind::SharedMem, false, true);
    ASSERT_NE(va, 0u);
    u64 v = 42;
    ASSERT_FALSE(as.writeBytes(va, &v, 8).has_value());
    auto child = as.forkCopy(101);
    u64 v2 = 77;
    ASSERT_FALSE(child->writeBytes(va, &v2, 8).has_value());
    u64 got = 0;
    ASSERT_FALSE(as.readBytes(va, &got, 8).has_value());
    EXPECT_EQ(got, v2) << "shared mapping writes must be visible to both";
}

TEST_F(MemTest, SwapOutResidentEvictsAndRestores)
{
    u64 va = mapAnon(8 * pageSize);
    for (u64 p = 0; p < 8; ++p) {
        u64 val = p;
        ASSERT_FALSE(
            as.writeBytes(va + p * pageSize, &val, 8).has_value());
    }
    EXPECT_EQ(as.residentPages(), 8u);
    u64 evicted = as.swapOutResident(5);
    EXPECT_EQ(evicted, 5u);
    EXPECT_EQ(as.residentPages(), 3u);
    for (u64 p = 0; p < 8; ++p) {
        u64 got = ~u64{0};
        ASSERT_FALSE(
            as.readBytes(va + p * pageSize, &got, 8).has_value());
        EXPECT_EQ(got, p);
    }
}

TEST_F(MemTest, PhysMemAccountsLiveFrames)
{
    u64 before = phys.liveFrames();
    {
        auto f = phys.allocFrame();
        EXPECT_EQ(phys.liveFrames(), before + 1);
    }
    EXPECT_EQ(phys.liveFrames(), before);
}

TEST_F(MemTest, RepresentablePaddingForLargeMappings)
{
    // A 1 MiB + 1 page request needs padding so mmap can return an
    // exactly-bounded capability.
    u64 want = (u64{1} << 20) + pageSize;
    u64 padded = as.representablePadding(want);
    EXPECT_GE(padded, want);
    EXPECT_TRUE(compress::boundsExactlyRepresentable(0, padded));
}

// --- swap-slot lifecycle -------------------------------------------------

TEST_F(MemTest, UnmapWhileSwappedDiscardsSlot)
{
    u64 va = mapAnon(2 * pageSize);
    u8 b = 1;
    ASSERT_FALSE(as.writeBytes(va, &b, 1).has_value());
    ASSERT_FALSE(as.writeBytes(va + pageSize, &b, 1).has_value());
    ASSERT_TRUE(as.swapOutPage(va));
    ASSERT_TRUE(as.swapOutPage(va + pageSize));
    EXPECT_EQ(swap.usedSlots(), 2u);
    ASSERT_TRUE(as.unmap(va, 2 * pageSize));
    EXPECT_EQ(swap.usedSlots(), 0u)
        << "munmap of swapped pages must release their slots";
    EXPECT_EQ(swap.totalDiscards(), 2u);
}

TEST_F(MemTest, DestructorDiscardsSwappedSlots)
{
    {
        AddressSpace dying(phys, swap, 7);
        u64 va = dying.map(0, pageSize, PROT_READ | PROT_WRITE,
                           MappingKind::Data);
        u8 b = 9;
        ASSERT_FALSE(dying.writeBytes(va, &b, 1).has_value());
        ASSERT_TRUE(dying.swapOutPage(va));
        EXPECT_EQ(swap.usedSlots(), 1u);
    }
    EXPECT_EQ(swap.usedSlots(), 0u)
        << "an address space's death must not leak swap slots";
}

TEST_F(MemTest, ReleaseAllFreesFramesAndSlots)
{
    u64 before = phys.liveFrames();
    u64 va = mapAnon(4 * pageSize);
    u8 b = 3;
    for (u64 p = 0; p < 4; ++p)
        ASSERT_FALSE(
            as.writeBytes(va + p * pageSize, &b, 1).has_value());
    ASSERT_TRUE(as.swapOutPage(va));
    EXPECT_EQ(swap.usedSlots(), 1u);
    EXPECT_EQ(as.residentPages(), 3u);
    as.releaseAll();
    EXPECT_EQ(phys.liveFrames(), before);
    EXPECT_EQ(swap.usedSlots(), 0u);
    EXPECT_EQ(as.residentPages(), 0u);
    EXPECT_EQ(as.swappedPages(), 0u);
}

TEST_F(MemTest, ForkSharesSwapSlotUntilBothSwapIn)
{
    u64 va = mapAnon(pageSize);
    u64 val = 0x5117;
    ASSERT_FALSE(as.writeBytes(va, &val, 8).has_value());
    Capability c = capFor(va, 64);
    ASSERT_FALSE(as.writeCap(va + 64, c).has_value());
    ASSERT_TRUE(as.swapOutPage(va));
    EXPECT_EQ(swap.usedSlots(), 1u);
    auto child = as.forkCopy(102);
    // Child swap-in must not free the slot out from under the parent.
    u64 got = 0;
    ASSERT_FALSE(child->readBytes(va, &got, 8).has_value());
    EXPECT_EQ(got, val);
    EXPECT_EQ(swap.usedSlots(), 1u)
        << "slot must survive until the fork sibling resolves it too";
    got = 0;
    ASSERT_FALSE(as.readBytes(va, &got, 8).has_value());
    EXPECT_EQ(got, val);
    EXPECT_EQ(swap.usedSlots(), 0u);
    // Both sides rederived tags from their own roots...
    auto pr = as.readCap(va + 64);
    auto cr = child->readCap(va + 64);
    ASSERT_TRUE(pr.ok());
    ASSERT_TRUE(cr.ok());
    EXPECT_TRUE(pr.value().tag());
    EXPECT_TRUE(cr.value().tag());
    // ...into private frames: a post-fork write stays private.
    u64 child_val = 0xC0C0;
    ASSERT_FALSE(child->writeBytes(va, &child_val, 8).has_value());
    ASSERT_FALSE(as.readBytes(va, &got, 8).has_value());
    EXPECT_EQ(got, val);
}

TEST_F(MemTest, ForkSiblingExitKeepsSwapSlotAlive)
{
    u64 va = mapAnon(pageSize);
    u64 val = 0xD00D;
    ASSERT_FALSE(as.writeBytes(va, &val, 8).has_value());
    ASSERT_TRUE(as.swapOutPage(va));
    {
        auto child = as.forkCopy(103);
        EXPECT_EQ(swap.usedSlots(), 1u);
    }
    // The child died holding a reference; the parent's copy survives.
    EXPECT_EQ(swap.usedSlots(), 1u);
    u64 got = 0;
    ASSERT_FALSE(as.readBytes(va, &got, 8).has_value());
    EXPECT_EQ(got, val);
    EXPECT_EQ(swap.usedSlots(), 0u);
}

TEST_F(MemTest, InstallFrameOverSwappedPageReleasesSlot)
{
    u64 va = mapAnon(pageSize);
    u8 b = 4;
    ASSERT_FALSE(as.writeBytes(va, &b, 1).has_value());
    ASSERT_TRUE(as.swapOutPage(va));
    EXPECT_EQ(swap.usedSlots(), 1u);
    ASSERT_TRUE(as.installFrame(va, phys.allocFrame()));
    EXPECT_EQ(swap.usedSlots(), 0u)
        << "shmat over a swapped-out page must not leak its slot";
}

TEST_F(MemTest, SwapInOfUnknownSlotFailsWithoutAborting)
{
    auto frame = phys.allocFrame();
    u64 before = swap.failedSwapIns();
    EXPECT_FALSE(swap.swapIn(12345, *frame, as.rederivationRoot()));
    EXPECT_EQ(swap.failedSwapIns(), before + 1);
}

// --- atomic mprotect -----------------------------------------------------

TEST_F(MemTest, ProtectIsAtomicOverPartialRange)
{
    u64 va = as.map(0x40000000, 2 * pageSize, PROT_READ | PROT_WRITE,
                    MappingKind::Data, true);
    ASSERT_NE(va, 0u);
    ASSERT_TRUE(as.unmap(va + pageSize, pageSize)); // hole at page 1
    // Range covers mapped + hole: must fail without touching page 0.
    EXPECT_FALSE(as.protect(va, 2 * pageSize, PROT_READ));
    u64 v = 5;
    EXPECT_FALSE(as.writeBytes(va, &v, 8).has_value())
        << "failed mprotect must leave earlier pages writable";
}

// --- LRU eviction --------------------------------------------------------

TEST_F(MemTest, EvictionOrderIsLeastRecentlyUsedFirst)
{
    u64 va = mapAnon(4 * pageSize);
    u8 b = 1;
    // Touch pages 0..3, then re-touch 0 and 2: LRU order is 1, 3, 0, 2.
    for (u64 p = 0; p < 4; ++p)
        ASSERT_FALSE(
            as.writeBytes(va + p * pageSize, &b, 1).has_value());
    ASSERT_FALSE(as.writeBytes(va, &b, 1).has_value());
    ASSERT_FALSE(as.writeBytes(va + 2 * pageSize, &b, 1).has_value());
    std::vector<u64> order = as.evictionOrder(4);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], va + pageSize);
    EXPECT_EQ(order[1], va + 3 * pageSize);
    EXPECT_EQ(order[2], va);
    EXPECT_EQ(order[3], va + 2 * pageSize);
    // swapOutResident(2) must evict exactly the two coldest pages.
    EXPECT_EQ(as.swapOutResident(2), 2u);
    EXPECT_EQ(as.residentPages(), 2u);
    u64 got = 0;
    // Pages 0 and 2 are still resident (no swap-in needed).
    EXPECT_EQ(swap.usedSlots(), 2u);
    ASSERT_FALSE(as.readBytes(va, &got, 1).has_value());
    EXPECT_EQ(swap.usedSlots(), 2u);
}

TEST_F(MemTest, EvictionOrderReproducibleAcrossRuns)
{
    // Two address spaces driven identically must evict identically.
    auto drive = [this](AddressSpace &s) {
        u64 va = s.map(0x50000000, 6 * pageSize,
                       PROT_READ | PROT_WRITE, MappingKind::Data, true);
        u8 b = 1;
        for (u64 p : {3u, 0u, 5u, 1u, 4u, 2u, 0u, 5u})
            EXPECT_FALSE(
                s.writeBytes(va + p * pageSize, &b, 1).has_value());
        return s.evictionOrder(6);
    };
    AddressSpace a(phys, swap, 11), b2(phys, swap, 12);
    EXPECT_EQ(drive(a), drive(b2));
}

// --- capacity and budget enforcement -------------------------------------

TEST_F(MemTest, FrameCapacityEnforced)
{
    PhysMem small;
    small.setCapacity(2);
    auto f1 = small.allocFrame();
    auto f2 = small.allocFrame();
    ASSERT_TRUE(f1 && f2);
    EXPECT_EQ(small.allocFrame(), nullptr)
        << "allocation beyond capacity with no one to reclaim must fail";
    EXPECT_EQ(small.failedAllocs(), 1u);
    f1.reset();
    EXPECT_NE(small.allocFrame(), nullptr);
}

/** Stands in for the kernel's reclaim pass: frees every held frame. */
struct FreeAll final : MemEvents
{
    std::vector<FrameRef> held;
    u64 asked = 0;

    u64
    reclaim(u64 wanted, const void *) override
    {
        asked += wanted;
        held.clear();
        return 2;
    }
    void machineCheck(FaultPoint, u64) override {}
    void faultFired(FaultPoint) override {}
};

TEST_F(MemTest, ReclaimRunsOnPressure)
{
    PhysMem small;
    small.setCapacity(2);
    FreeAll events;
    events.held.push_back(small.allocFrame());
    events.held.push_back(small.allocFrame());
    small.setMemEvents(&events);
    FrameRef f = small.allocFrame();
    EXPECT_NE(f, nullptr) << "reclaim made room, alloc must succeed";
    EXPECT_EQ(events.asked, 1u);
    EXPECT_EQ(small.reclaimRequests(), 1u);
}

TEST_F(MemTest, SlotBudgetEnforced)
{
    SwapDevice tight;
    tight.setSlotBudget(1);
    auto f = phys.allocFrame();
    u64 s1 = tight.swapOut(*f);
    ASSERT_NE(s1, SwapDevice::invalidSlot);
    EXPECT_EQ(tight.swapOut(*f), SwapDevice::invalidSlot)
        << "swap-out past the slot budget must fail cleanly";
    EXPECT_EQ(tight.failedSwapOuts(), 1u);
    tight.discard(s1);
    EXPECT_NE(tight.swapOut(*f), SwapDevice::invalidSlot);
}

// --- deterministic fault injection ---------------------------------------

TEST_F(MemTest, FaultInjectorFailsOnNthEvent)
{
    FaultInjector inj;
    inj.failAfter(FaultPoint::FrameAlloc, 3);
    EXPECT_FALSE(inj.shouldFail(FaultPoint::FrameAlloc));
    EXPECT_FALSE(inj.shouldFail(FaultPoint::FrameAlloc));
    EXPECT_TRUE(inj.shouldFail(FaultPoint::FrameAlloc));
    // One-shot: disarms after firing.
    EXPECT_FALSE(inj.shouldFail(FaultPoint::FrameAlloc));
    EXPECT_EQ(inj.injected(FaultPoint::FrameAlloc), 1u);
    EXPECT_EQ(inj.events(FaultPoint::FrameAlloc), 4u);
}

TEST_F(MemTest, FaultInjectorPointsAreIndependent)
{
    FaultInjector inj;
    inj.failAfter(FaultPoint::SwapIn, 1);
    EXPECT_FALSE(inj.shouldFail(FaultPoint::FrameAlloc));
    EXPECT_FALSE(inj.shouldFail(FaultPoint::SwapOut));
    EXPECT_TRUE(inj.shouldFail(FaultPoint::SwapIn));
}

TEST_F(MemTest, FaultInjectorSeededReplayIsDeterministic)
{
    auto run = [](u64 seed) {
        FaultInjector inj;
        inj.failRandomly(FaultPoint::SwapOut, 5, seed);
        std::vector<bool> fired;
        for (int i = 0; i < 64; ++i)
            fired.push_back(inj.shouldFail(FaultPoint::SwapOut));
        return fired;
    };
    EXPECT_EQ(run(42), run(42)) << "same seed must replay identically";
    EXPECT_NE(run(42), run(43));
}

TEST_F(MemTest, InjectedSwapInFailureKeepsSlotForRetry)
{
    FaultInjector inj;
    swap.setFaultInjector(&inj);
    u64 va = mapAnon(pageSize);
    u64 magic = 0xDEAD;
    ASSERT_FALSE(as.writeBytes(va, &magic, 8).has_value());
    ASSERT_TRUE(as.swapOutPage(va));
    inj.failAfter(FaultPoint::SwapIn, 1);
    u64 got = 0;
    CapCheck err = as.readBytes(va, &got, 8);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(*err, CapFault::SwapInFailure);
    EXPECT_EQ(as.lastWalkFault(), CapFault::SwapInFailure);
    EXPECT_EQ(swap.usedSlots(), 1u)
        << "a failed swap-in must retain the slot for retry";
    // Retry with the injector quiet: the page comes back intact.
    ASSERT_FALSE(as.readBytes(va, &got, 8).has_value());
    EXPECT_EQ(got, magic);
    EXPECT_EQ(swap.usedSlots(), 0u);
    swap.setFaultInjector(nullptr);
}

TEST_F(MemTest, ExhaustedDemandZeroRaisesMemoryExhausted)
{
    FaultInjector inj;
    phys.setFaultInjector(&inj);
    u64 va = mapAnon(pageSize);
    inj.failAfter(FaultPoint::FrameAlloc, 1);
    u64 got = 0;
    CapCheck err = as.readBytes(va, &got, 8);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(*err, CapFault::MemoryExhausted);
    EXPECT_EQ(as.lastWalkFault(), CapFault::MemoryExhausted);
    // With the injector quiet the same access succeeds.
    EXPECT_FALSE(as.readBytes(va, &got, 8).has_value());
    phys.setFaultInjector(nullptr);
}

// --- reference model for the page table --------------------------------
//
// A region's page table holds a leaf block of PTEs only where its pages
// hold something.  DensePageTable, the naive model, keeps one entry per
// mapped page and runs in lock step with an AddressSpace over seeded
// map / fixed replace / unmap-with-split / partial and whole mprotect /
// touch / installFrame / fork / swap-out / swap-in / sweep sequences,
// with mappings long enough to span several blocks and holes that split
// them on and off block boundaries.  After every step every PTE view,
// the content-only visit and its tagged capabilities, the mapping
// lookups, the page counts, the eviction order and the sweep worklists
// must agree.  Frames and swap slots are opaque handles: the model
// learns one when a page is (re)filled or evicted and from then on
// requires it to stay with that page.  The frame and slot budgets
// honour CHERI_TEST_FRAME_BUDGET and CHERI_TEST_SLOT_BUDGET, so reclaim
// evicts through missing and present blocks, mirrored into the model as
// it happens.

u64
envOr(const char *name, u64 dflt)
{
    const char *v = std::getenv(name);
    return v ? std::strtoull(v, nullptr, 0) : dflt;
}

struct DensePte
{
    u32 prot = PROT_NONE;
    bool shared = false;
    bool cow = false;
    bool resident = false;
    bool swapped = false;
    bool capDirty = false;
    u64 lastUse = 0;
    u64 sweptEpoch = 0;
    /** Learned frame and slot. */
    const Frame *frame = nullptr;
    u64 slot = ~u64{0};
    /** Fork children still holding this page's frame. */
    std::set<unsigned> holders;
};

struct DenseRegion
{
    u64 len = 0;
    u32 prot = PROT_NONE;
    bool shared = false;
    std::vector<DensePte> ptes;
};

struct DensePageTable
{
    std::map<u64, DenseRegion> regions;
    /** Successful walks so far: AddressSpace's LRU clock. */
    u64 clock = 0;
    /** Granules holding a tagged capability, resident or swapped. */
    std::set<u64> tagged;

    /** The mapping holding @p va, or regions.end(). */
    std::map<u64, DenseRegion>::iterator
    findRegion(u64 va)
    {
        auto it = regions.upper_bound(va);
        if (it == regions.begin())
            return regions.end();
        --it;
        return va < it->first + it->second.len ? it : regions.end();
    }

    DensePte *
    find(u64 va)
    {
        auto it = findRegion(va);
        return it == regions.end()
                   ? nullptr
                   : &it->second.ptes[(va - it->first) / pageSize];
    }

    template <typename Fn>
    void
    each(Fn &&fn)
    {
        for (auto &[start, r] : regions) {
            for (u64 i = 0; i < r.ptes.size(); ++i)
                fn(start + i * pageSize, r.ptes[i]);
        }
    }

    void
    map(u64 start, u64 len, u32 prot, bool shared)
    {
        DensePte pte;
        pte.prot = prot;
        pte.shared = shared;
        regions[start] = {len, prot, shared,
                          std::vector<DensePte>(len / pageSize, pte)};
    }

    bool
    unmap(u64 start, u64 len)
    {
        u64 end = start + len;
        bool any = false;
        std::map<u64, DenseRegion> kept;
        for (auto &[mstart, r] : regions) {
            u64 mend = mstart + r.len;
            if (mend <= start || mstart >= end) {
                kept[mstart] = std::move(r);
                continue;
            }
            any = true;
            u64 lo = (std::max(start, mstart) - mstart) / pageSize;
            u64 hi = (std::min(end, mend) - mstart) / pageSize;
            if (mend > end) {
                kept[end] = {mend - end, r.prot, r.shared,
                             {r.ptes.begin() + hi, r.ptes.end()}};
            }
            if (mstart < start) {
                r.len = start - mstart;
                r.ptes.resize(lo);
                kept[mstart] = std::move(r);
            }
        }
        regions = std::move(kept);
        tagged.erase(tagged.lower_bound(start), tagged.lower_bound(end));
        return any;
    }

    bool
    protect(u64 start, u64 len, u32 prot)
    {
        for (u64 va = start; va < start + len; va += pageSize) {
            if (!find(va))
                return false;
        }
        for (u64 va = start; va < start + len; va += pageSize)
            find(va)->prot = prot;
        for (auto &[mstart, r] : regions) {
            if (mstart >= start && mstart + r.len <= start + len)
                r.prot = prot;
        }
        return true;
    }

    bool
    evictable(const DensePte &p) const
    {
        return p.resident && !p.shared && p.holders.empty();
    }

    std::vector<u64>
    evictionOrder(u64 max)
    {
        std::vector<std::pair<u64, u64>> victims;
        each([&](u64 va, const DensePte &p) {
            if (evictable(p))
                victims.emplace_back(p.lastUse, va);
        });
        std::sort(victims.begin(), victims.end());
        std::vector<u64> order;
        for (const auto &[use, va] : victims) {
            if (order.size() < max)
                order.push_back(va);
        }
        return order;
    }

    void
    swappedOut(u64 va)
    {
        DensePte &p = *find(va);
        p.resident = false;
        p.swapped = true;
        p.frame = nullptr;
    }
};

/** Compare @p as with @p ref; learn frames and slots.  A fork child's
 *  frames are all aliased by its parent, so its eviction order and
 *  reference counts are not the reference's to predict. */
void
expectMatchesDense(const AddressSpace &as, DensePageTable &ref,
                   bool is_parent)
{
    std::vector<AddressSpace::PteView> seen;
    as.forEachPte(
        [&](const AddressSpace::PteView &v) { seen.push_back(v); });
    u64 mapped = 0, content = 0, swapped = 0, resident = 0;
    std::vector<u64> dirty, full, wantCaps;
    auto v = seen.begin();
    ref.each([&](u64 va, DensePte &p) {
        ++mapped;
        content += p.resident || p.swapped;
        swapped += p.swapped;
        resident += p.resident;
        if (p.capDirty)
            dirty.push_back(va);
        if (p.resident || p.swapped)
            full.push_back(va);
        if (v == seen.end())
            return;
        SCOPED_TRACE(va);
        ASSERT_EQ(v->va, va);
        EXPECT_EQ(v->prot, p.prot);
        EXPECT_EQ(v->shared, p.shared);
        EXPECT_EQ(v->cow, p.cow);
        EXPECT_EQ(v->swapped, p.swapped);
        EXPECT_EQ(v->capDirty, p.capDirty);
        EXPECT_EQ(v->sweptEpoch, p.sweptEpoch);
        EXPECT_EQ(v->frame != nullptr, p.resident);
        if (p.resident && p.frame) {
            EXPECT_EQ(v->frame, p.frame);
        }
        p.frame = p.resident ? v->frame : nullptr;
        if (p.swapped && p.slot != ~u64{0}) {
            EXPECT_EQ(v->swapSlot, p.slot);
        }
        p.slot = p.swapped ? v->swapSlot : ~u64{0};
        if (is_parent && p.resident) {
            EXPECT_EQ(v->frameRefs,
                      static_cast<long>(1 + p.holders.size()));
        }
        ++v;
    });
    ASSERT_EQ(seen.size(), mapped);
    EXPECT_EQ(as.mappedPages(), mapped);
    EXPECT_EQ(as.contentPages(), content);
    EXPECT_EQ(as.swappedPages(), swapped);
    EXPECT_EQ(as.residentPages(), resident);
    EXPECT_EQ(as.sweepWorklist(false), dirty);
    EXPECT_EQ(as.sweepWorklist(true), full);
    // The content-only visit: exactly the resident or swapped pages,
    // then each resident page's tagged granules.
    std::vector<u64> contentVas, caps;
    as.forEachPteWithCaps<AddressSpace::PteSet::Content>(
        [&](const AddressSpace::PteView &cv) { contentVas.push_back(cv.va); },
        [&](u64 va, const Capability &) { caps.push_back(va); });
    EXPECT_EQ(contentVas, full);
    for (u64 va : ref.tagged) {
        if (ref.find(pageTrunc(va))->resident)
            wantCaps.push_back(va);
    }
    EXPECT_EQ(caps, wantCaps);
    // findMapping at both edges of every mapping, the first byte past
    // it and the byte before it.  The mapping record's protection
    // stands for the pages of missing blocks.  Leaf blocks are whole,
    // and never more than the mappings span.
    u64 span = 0;
    for (const auto &[start, r] : ref.regions) {
        for (u64 va : {start - 1, start, start + r.len / 2,
                       start + r.len - 1, start + r.len}) {
            const Mapping *got = as.findMapping(va);
            auto want = ref.findRegion(va);
            ASSERT_EQ(got != nullptr, want != ref.regions.end()) << va;
            if (got) {
                EXPECT_EQ(got->start, want->first);
                EXPECT_EQ(got->len, want->second.len);
                EXPECT_EQ(got->prot, want->second.prot);
            }
        }
        u64 pages = r.len / pageSize;
        span += (pages + AddressSpace::pteBlockPages - 1) /
                AddressSpace::pteBlockPages * AddressSpace::pteBlockPages;
    }
    u64 n = 0;
    as.forEachMapping([&](const Mapping &) { ++n; });
    EXPECT_EQ(n, ref.regions.size());
    EXPECT_EQ(as.allocatedPteEntries() % AddressSpace::pteBlockPages, 0u);
    EXPECT_LE(as.allocatedPteEntries(), span);
    if (!is_parent)
        return;
    for (u64 max : {u64{1}, u64{5}, ~u64{0}})
        EXPECT_EQ(as.evictionOrder(max), ref.evictionOrder(max));
}

/** Reclaim for the lock-step test: the space's own LRU eviction,
 *  checked against and mirrored into the reference. */
struct ModelEvictor final : MemEvents
{
    AddressSpace &as;
    DensePageTable &ref;
    u64 passes = 0;

    ModelEvictor(AddressSpace &as, DensePageTable &ref) : as(as), ref(ref)
    {
    }

    u64
    reclaim(u64 wanted, const void *) override
    {
        ++passes;
        std::vector<u64> order = as.evictionOrder(wanted + 3);
        EXPECT_EQ(order, ref.evictionOrder(wanted + 3));
        u64 n = as.swapOutResident(wanted + 3);
        EXPECT_LE(n, order.size());
        for (u64 k = 0; k < n && k < order.size(); ++k)
            ref.swappedOut(order[k]);
        return n;
    }
    void machineCheck(FaultPoint, u64) override {}
    void faultFired(FaultPoint) override {}
};

class PageTableModelTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PageTableModelTest, RandomOpsMatchNaiveModel)
{
    CHERI_TRACE_SEED(GetParam(), "CHERI_TEST_PAGETABLE_SEEDS");
    std::mt19937_64 rng(GetParam());
    auto pick = [&](u64 n) { return rng() % n; };
    PhysMem phys;
    SwapDevice swap;
    phys.setCapacity(envOr("CHERI_TEST_FRAME_BUDGET", 32));
    swap.setSlotBudget(envOr("CHERI_TEST_SLOT_BUDGET", 512));
    const bool budgeted = phys.frameCapacity() != 0;
    AddressSpace as(phys, swap, 1);
    DensePageTable ref;
    ModelEvictor evictor(as, ref);
    phys.setMemEvents(&evictor);
    std::deque<std::pair<unsigned, std::unique_ptr<AddressSpace>>> children;
    u64 epoch = 0;
    u64 exhausted = 0;

    auto randomPage = [&]() -> u64 {
        u64 n = 0;
        for (const auto &[start, r] : ref.regions)
            n += r.len / pageSize;
        u64 k = pick(n);
        for (const auto &[start, r] : ref.regions) {
            if (k < r.len / pageSize)
                return start + k * pageSize;
            k -= r.len / pageSize;
        }
        return 0;
    };
    const u32 prots[] = {PROT_NONE, PROT_READ, PROT_READ | PROT_WRITE,
                         PROT_READ | PROT_WRITE};
    const u64 block = AddressSpace::pteBlockPages;

    for (unsigned step = 0; step < 600; ++step) {
        SCOPED_TRACE(step);
        unsigned op = ref.regions.empty() ? 0 : pick(12);
        if (op == 0 || (op == 1 && ref.regions.size() < 3)) {
            u64 len = (1 + pick(3 * block)) * pageSize;
            u32 prot = prots[1 + pick(3)];
            bool shared = pick(6) == 0;
            u64 va = as.map(0, len, prot, MappingKind::Data, false, shared);
            ASSERT_NE(va, 0u);
            ref.map(va, len, prot, shared);
        } else if (op == 1) {
            // Fixed replacement over whatever sits there.
            u64 va = randomPage();
            u64 len = (1 + pick(block)) * pageSize;
            u32 prot = prots[1 + pick(3)];
            ASSERT_EQ(as.map(va, len, prot, MappingKind::Data, true, false,
                             "", true),
                      va);
            ref.unmap(va, len);
            ref.map(va, len, prot, false);
        } else if (op == 2) {
            // A hole that may start on or off a block boundary of its
            // mapping and run past the mapping's end.
            u64 va = randomPage();
            if (pick(3) == 0) {
                const Mapping *m = as.findMapping(va);
                u64 idx = (va - m->start) / pageSize;
                va = m->start + idx / block * block * pageSize;
            }
            u64 len = (1 + pick(2 * block)) * pageSize;
            EXPECT_EQ(as.unmap(va, len), ref.unmap(va, len));
        } else if (op == 3) {
            // mprotect: a whole mapping, or a range that may cross
            // mapping boundaries and holes.
            u32 prot = prots[pick(4)];
            u64 va = randomPage(), len = (1 + pick(2 * block)) * pageSize;
            if (pick(2) == 0) {
                const Mapping *m = as.findMapping(va);
                va = m->start;
                len = m->len;
            }
            EXPECT_EQ(as.protect(va, len, prot), ref.protect(va, len, prot));
        } else if (op <= 6) {
            // Touch one page: demand-zero fill, swap-in, COW resolution,
            // or a refused access.
            u64 va = randomPage();
            DensePte &p = *ref.find(va);
            bool write = (p.prot & PROT_WRITE) && pick(3) != 0;
            u64 word = step;
            CapCheck r = write ? as.writeBytes(va + 8, &word, 8)
                               : as.readBytes(va + 8, &word, 8);
            if (!(p.prot & (write ? PROT_WRITE : PROT_READ))) {
                ASSERT_TRUE(r.has_value());
                EXPECT_EQ(*r, CapFault::PageFault);
            } else if (r.has_value()) {
                // Only a budget can refuse a permitted access; the
                // refused walk changed nothing.
                EXPECT_TRUE(budgeted);
                EXPECT_EQ(*r, CapFault::MemoryExhausted);
                ++exhausted;
            } else {
                if (p.swapped || !p.resident || (write && p.cow &&
                                                 !p.holders.empty())) {
                    p.frame = nullptr;
                    p.holders.clear();
                }
                p.resident = true;
                p.swapped = false;
                p.cow = p.cow && !write;
                p.lastUse = ++ref.clock;
                if (write && pick(2)) {
                    Capability c = as.capForRange(va, pageSize, p.prot);
                    ASSERT_FALSE(as.writeCap(va + 0x20, c));
                    p.capDirty = true;
                    p.lastUse = ++ref.clock;
                    ref.tagged.insert(va + 0x20);
                }
            }
        } else if (op == 7) {
            unsigned id = 2 + step;
            children.emplace_back(id, as.forkCopy(id));
            ref.each([&](u64, DensePte &p) {
                if (p.resident) {
                    p.cow = p.cow || !p.shared;
                    p.holders.insert(id);
                }
            });
            DensePageTable child = ref;
            expectMatchesDense(*children.back().second, child, false);
            if (children.size() > 2) {
                unsigned gone = children.front().first;
                children.pop_front();
                ref.each([&](u64, DensePte &p) { p.holders.erase(gone); });
            }
        } else if (op == 8) {
            u64 max = 1 + pick(8);
            std::vector<u64> order = as.evictionOrder(max);
            EXPECT_EQ(order, ref.evictionOrder(max));
            u64 room = swap.slotBudget() - swap.usedSlots();
            u64 n = as.swapOutResident(max);
            EXPECT_EQ(n, std::min<u64>(order.size(), room));
            for (u64 k = 0; k < n; ++k)
                ref.swappedOut(order[k]);
        } else if (op == 9) {
            u64 va = randomPage();
            DensePte &p = *ref.find(va);
            bool room = swap.usedSlots() < swap.slotBudget();
            EXPECT_EQ(as.swapOutPage(va), ref.evictable(p) && room);
            if (ref.evictable(p) && room)
                ref.swappedOut(va);
        } else if (op == 10) {
            // A fresh shared frame over whatever backed the page.
            u64 va = randomPage();
            FrameRef f = phys.allocFrame();
            if (!f) {
                EXPECT_TRUE(budgeted);
                continue;
            }
            const Frame *raw = f.get();
            ASSERT_TRUE(as.installFrame(va, std::move(f)));
            DensePte &p = *ref.find(va);
            p.resident = true;
            p.swapped = false;
            p.shared = true;
            p.cow = false;
            p.capDirty = true;
            p.frame = raw;
            p.holders.clear();
            ref.tagged.erase(ref.tagged.lower_bound(va),
                             ref.tagged.lower_bound(va + pageSize));
        } else {
            // Revoke everything the page holds.
            u64 va = randomPage();
            DensePte &p = *ref.find(va);
            AddressSpace::PageSweep r =
                as.sweepPage(va, ++epoch, [](const Capability &) {
                    return true;
                });
            EXPECT_FALSE(r.deviceFailed);
            EXPECT_EQ(r.provenClean, !p.shared);
            p.capDirty = p.capDirty && p.shared;
            p.sweptEpoch = epoch;
            ref.tagged.erase(ref.tagged.lower_bound(va),
                             ref.tagged.lower_bound(va + pageSize));
        }
        expectMatchesDense(as, ref, true);
        // What the page tables name is all that is live: an unmapped
        // page's frame and slot are gone with it.
        std::set<const Frame *> frames;
        std::set<u64> slots;
        auto note = [&](const AddressSpace::PteView &v) {
            if (v.frame)
                frames.insert(v.frame);
            if (v.swapped)
                slots.insert(v.swapSlot);
        };
        as.forEachPte(note);
        for (const auto &[id, child] : children)
            child->forEachPte(note);
        EXPECT_EQ(phys.liveFrames(), frames.size());
        EXPECT_EQ(swap.usedSlots(), slots.size());
        if (::testing::Test::HasFatalFailure())
            return;
    }
    // At the default budget the sequence reaches the reclaim it mirrors.
    if (!std::getenv("CHERI_TEST_FRAME_BUDGET")) {
        EXPECT_GT(evictor.passes, 0u);
    }
    RecordProperty("reclaims", static_cast<int>(evictor.passes));
    RecordProperty("exhausted_walks", static_cast<int>(exhausted));
    phys.setMemEvents(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PageTableModelTest,
    ::testing::ValuesIn(test::seedsFromEnv("CHERI_TEST_PAGETABLE_SEEDS", 4)));

// Host storage follows content: an untouched mapping holds no leaf
// block, a touched page's block comes on first use, and fork copies only
// the blocks that exist.
TEST_F(MemTest, SparseStackAllocatesOneBlock)
{
    const u64 len = 8u << 20;
    u64 va = mapAnon(len);
    EXPECT_EQ(as.mappedPages(), len / pageSize);
    EXPECT_EQ(as.allocatedPteEntries(), 0u);
    for (u64 p = 1; p <= 3; ++p) {
        u64 word = p;
        ASSERT_FALSE(as.writeBytes(va + len - p * pageSize, &word, 8));
    }
    EXPECT_EQ(as.allocatedPteEntries(), AddressSpace::pteBlockPages);
    // A whole-mapping mprotect changes the mapping record, not blocks.
    ASSERT_TRUE(as.protect(va, len, PROT_READ));
    EXPECT_EQ(as.allocatedPteEntries(), AddressSpace::pteBlockPages);
    std::unique_ptr<AddressSpace> child = as.forkCopy(2);
    EXPECT_EQ(child->allocatedPteEntries(), AddressSpace::pteBlockPages);
    EXPECT_EQ(child->contentPages(), 3u);
    ASSERT_TRUE(as.unmap(va, len));
    EXPECT_EQ(as.allocatedPteEntries(), 0u);
}

} // namespace
} // namespace cheri
