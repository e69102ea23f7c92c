/**
 * @file
 * Tests for the cache hierarchy and the per-ABI cost model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "machine/cache.h"
#include "machine/cost_model.h"
#include "machine/host_pool.h"
#include "machine/regs.h"

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
    EXPECT_NO_THROW(Cache(4 * 64, 4, 64));
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
