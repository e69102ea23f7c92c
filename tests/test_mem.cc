/**
 * @file
 * Tests for tagged physical memory, address spaces (demand-zero, COW,
 * shared mappings), and tag-preserving swap with rederivation.
 */

#include <gtest/gtest.h>

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
// A deliberately naive model of the page table: one std::map node per
// page and a linear list of mappings.  Random map / unmap-hole /
// mprotect / touch / fork / swap-out sequences run against both, and
// after every step the AddressSpace's VA-ordered PTE walk and its
// findMapping answers must equal the model's, and so must the
// content-only visit and its tagged capabilities.  Frames and swap slots
// are opaque handles: the model learns one when a page is (re)filled
// or evicted and from then on requires it to stay with that page.

struct ModelPte
{
    u32 prot = PROT_NONE;
    bool cow = false;
    bool swapped = false;
    bool resident = false;
    /** Learned frame; null until the page is observed resident. */
    const Frame *frame = nullptr;
    /** Learned swap slot; unknown until observed swapped. */
    u64 slot = ~u64{0};
};

struct ModelMapping
{
    u64 len = 0;
    u32 prot = PROT_NONE;
};

struct PageTableModel
{
    std::map<u64, ModelPte> pages;
    std::map<u64, ModelMapping> mappings; // keyed by start
    /** Granules holding a tagged capability. */
    std::set<u64> tagged;

    const std::pair<const u64, ModelMapping> *
    find(u64 va) const
    {
        for (const auto &m : mappings) {
            if (va >= m.first && va < m.first + m.second.len)
                return &m;
        }
        return nullptr;
    }

    void
    map(u64 start, u64 len, u32 prot)
    {
        mappings[start] = {len, prot};
        for (u64 va = start; va < start + len; va += pageSize)
            pages[va].prot = prot;
    }

    bool
    unmap(u64 start, u64 len)
    {
        u64 end = start + len;
        bool any = false;
        std::map<u64, ModelMapping> kept;
        for (const auto &[mstart, m] : mappings) {
            u64 mend = mstart + m.len;
            if (mend <= start || mstart >= end) {
                kept[mstart] = m;
                continue;
            }
            any = true;
            if (mstart < start)
                kept[mstart] = {start - mstart, m.prot};
            if (mend > end)
                kept[end] = {mend - end, m.prot};
        }
        mappings = kept;
        for (u64 va = start; va < end; va += pageSize)
            pages.erase(va);
        tagged.erase(tagged.lower_bound(start), tagged.lower_bound(end));
        return any;
    }

    bool
    protect(u64 start, u64 len, u32 prot)
    {
        for (u64 va = start; va < start + len; va += pageSize) {
            if (!pages.count(va))
                return false;
        }
        for (u64 va = start; va < start + len; va += pageSize)
            pages[va].prot = prot;
        for (auto &[mstart, m] : mappings) {
            if (mstart >= start && mstart + m.len <= start + len)
                m.prot = prot;
        }
        return true;
    }
};

/** Compare @p as against @p model; learn frames and slots the model
 *  does not know yet. */
void
expectMatchesModel(const AddressSpace &as, PageTableModel &model)
{
    std::vector<AddressSpace::PteView> seen;
    as.forEachPte(
        [&](const AddressSpace::PteView &v) { seen.push_back(v); });
    ASSERT_EQ(seen.size(), model.pages.size());
    EXPECT_EQ(as.mappedPages(), model.pages.size());
    // The content-only visit: exactly the resident or swapped pages,
    // then each resident page's tagged granules.
    std::vector<u64> content, wantContent, caps, wantCaps;
    as.forEachPteWithCaps<AddressSpace::PteSet::Content>(
        [&](const AddressSpace::PteView &v) { content.push_back(v.va); },
        [&](u64 va, const Capability &) { caps.push_back(va); });
    for (const auto &[va, m] : model.pages) {
        if (m.resident || m.swapped)
            wantContent.push_back(va);
    }
    for (u64 va : model.tagged) {
        if (model.pages.at(pageTrunc(va)).resident)
            wantCaps.push_back(va);
    }
    EXPECT_EQ(content, wantContent);
    EXPECT_EQ(caps, wantCaps);
    auto it = model.pages.begin();
    for (const AddressSpace::PteView &v : seen) {
        ModelPte &m = it->second;
        SCOPED_TRACE(v.va);
        ASSERT_EQ(v.va, it->first);
        EXPECT_EQ(v.prot, m.prot);
        EXPECT_EQ(v.cow, m.cow);
        EXPECT_FALSE(v.shared);
        EXPECT_EQ(v.swapped, m.swapped);
        EXPECT_EQ(v.frame != nullptr, m.resident);
        if (m.resident) {
            if (m.frame) {
                EXPECT_EQ(v.frame, m.frame);
            }
            m.frame = v.frame;
        } else {
            m.frame = nullptr;
        }
        if (m.swapped) {
            if (m.slot != ~u64{0}) {
                EXPECT_EQ(v.swapSlot, m.slot);
            }
            m.slot = v.swapSlot;
        } else {
            m.slot = ~u64{0};
        }
        ++it;
    }
    // findMapping: both edges of every mapping, the first byte past it,
    // and the byte before it, against the model's linear search.
    for (const auto &[start, m] : model.mappings) {
        for (u64 va : {start - 1, start, start + m.len / 2,
                       start + m.len - 1, start + m.len}) {
            const Mapping *got = as.findMapping(va);
            const auto *want = model.find(va);
            ASSERT_EQ(got != nullptr, want != nullptr) << va;
            if (got) {
                EXPECT_EQ(got->start, want->first);
                EXPECT_EQ(got->len, want->second.len);
                EXPECT_EQ(got->prot, want->second.prot);
            }
        }
    }
    u64 n = 0;
    as.forEachMapping([&](const Mapping &) { ++n; });
    EXPECT_EQ(n, model.mappings.size());
}

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
    AddressSpace as(phys, swap, 1);
    PageTableModel model;
    // Fork children hold COW references to the parent's frames until
    // they are dropped (oldest first).
    std::deque<std::unique_ptr<AddressSpace>> children;

    auto randomMappedPage = [&]() -> u64 {
        auto it = model.pages.begin();
        std::advance(it, pick(model.pages.size()));
        return it->first;
    };
    const u32 prots[] = {PROT_READ, PROT_READ | PROT_WRITE};

    for (unsigned step = 0; step < 400; ++step) {
        SCOPED_TRACE(step);
        unsigned op = model.pages.empty() ? 0 : pick(8);
        if (op == 0) {
            u64 len = (1 + pick(8)) * pageSize;
            u32 prot = prots[pick(2)];
            u64 va = as.map(0, len, prot, MappingKind::Data);
            ASSERT_NE(va, 0u);
            for (u64 p = va; p < va + len; p += pageSize)
                ASSERT_EQ(model.pages.count(p), 0u);
            model.map(va, len, prot);
        } else if (op == 1) {
            // Fixed replacement over whatever sits there.
            u64 va = randomMappedPage();
            u64 len = (1 + pick(6)) * pageSize;
            u32 prot = prots[pick(2)];
            ASSERT_EQ(as.map(va, len, prot, MappingKind::Data, true, false,
                             "", true),
                      va);
            model.unmap(va, len);
            model.map(va, len, prot);
        } else if (op == 2) {
            // A hole that may start mid-mapping and run past its end.
            u64 va = randomMappedPage();
            u64 len = (1 + pick(6)) * pageSize;
            EXPECT_EQ(as.unmap(va, len), model.unmap(va, len));
        } else if (op == 3) {
            // mprotect that may cross mapping boundaries and holes.
            u64 va = randomMappedPage();
            u64 len = (1 + pick(10)) * pageSize;
            u32 prot = prots[pick(2)];
            EXPECT_EQ(as.protect(va, len, prot),
                      model.protect(va, len, prot));
        } else if (op <= 5) {
            // Touch one page: fills it, swaps it in, resolves COW.
            u64 va = randomMappedPage();
            ModelPte &m = model.pages[va];
            u64 word = step;
            if (m.prot & PROT_WRITE) {
                ASSERT_FALSE(as.writeBytes(va + 8, &word, 8));
                m.cow = false;
                if (pick(2)) {
                    Capability c = as.capForRange(va, pageSize, m.prot);
                    ASSERT_FALSE(as.writeCap(va + 0x20, c));
                    model.tagged.insert(va + 0x20);
                }
            } else {
                ASSERT_FALSE(as.readBytes(va + 8, &word, 8));
            }
            // The page may have changed frames (fill, swap-in or COW
            // copy): learn it afresh.
            m.resident = true;
            m.swapped = false;
            m.frame = nullptr;
        } else if (op == 6) {
            children.push_back(as.forkCopy(2 + step));
            for (auto &[va, m] : model.pages)
                m.cow = m.cow || m.resident;
            PageTableModel childModel = model;
            expectMatchesModel(*children.back(), childModel);
            if (children.size() > 2)
                children.pop_front();
        } else {
            u64 max = 1 + pick(4);
            std::vector<u64> order = as.evictionOrder(max);
            EXPECT_EQ(as.swapOutResident(max), order.size());
            for (u64 va : order) {
                ModelPte &m = model.pages.at(va);
                ASSERT_TRUE(m.resident);
                m.resident = false;
                m.swapped = true;
                m.frame = nullptr;
            }
        }
        expectMatchesModel(as, model);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PageTableModelTest,
    ::testing::ValuesIn(test::seedsFromEnv("CHERI_TEST_PAGETABLE_SEEDS", 4)));

} // namespace
} // namespace cheri
