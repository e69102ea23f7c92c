/**
 * @file
 * An independent capability reference, run against Capability.
 *
 * The reference models the operations every guest access runs
 * through — the access check (CHERI's load/store/fetch rules) and the
 * cursor moves of pointer arithmetic (CSetAddr, CIncOffset) — straight
 * from the architecture: bounds kept uncompressed in 128-bit
 * arithmetic, faults tested in the architectural priority order (tag,
 * seal, permissions, bounds), and its own derivation of the
 * CHERI-Concentrate representable window.  It calls no Capability or
 * compress:: code; the tests only read the implementation's fields to
 * seed it.
 *
 * Seeded property tests then drive both over tagged, untagged and
 * sealed capabilities of both formats, every subset of requested
 * permissions, zero lengths, a top of 2^64, accesses whose end wraps
 * past 2^64, and cursor moves that leave the bounds by less than,
 * exactly, and more than the representable slack.
 */

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <set>

#include "cap/capability.h"

namespace cheri
{
namespace
{

namespace ref
{

using s128 = __int128;

constexpr u128 twoTo64 = u128{1} << 64;

/** An uncompressed capability: every field exact, top up to 2^64. */
struct Cap
{
    bool tag = false;
    u128 base = 0;
    u128 top = 0;
    u128 addr = 0;
    u32 perms = 0;
    bool sealed = false;
    /** The 256-bit format: exact bounds, no representability limit. */
    bool uncompressed = false;
};

/** Mantissa width of the 128-bit format; one bit is reserved. */
constexpr unsigned mantissa = 14;

/**
 * Exponent of a region of @p length bytes: the smallest e for which
 * length >> e fits in the mantissa's mantissa - 1 usable bits.
 */
unsigned
exponent(u128 length)
{
    unsigned e = 0;
    while ((length >> e) >= (u128{1} << (mantissa - 1)))
        ++e;
    return e;
}

/**
 * Whether a cursor at @p a is representable for @p c's bounds.  The
 * compressed encoding describes a window of 2^(e + mantissa) bytes
 * that the object fills at most half of, so a cursor may roam a
 * quarter window below base and above top; a window of 2^64 or more
 * covers the whole address space.
 */
bool
representable(const Cap &c, u128 a)
{
    if (c.uncompressed)
        return true;
    if (a >= c.base && a <= c.top)
        return true;
    unsigned window_bits = exponent(c.top - c.base) + mantissa;
    if (window_bits >= 64)
        return true;
    u128 slack = (u128{1} << window_bits) / 4;
    return a + slack >= c.base && a < c.top + slack;
}

/** The representable slack of @p c (twoTo64 for "unlimited"). */
u128
slack(const Cap &c)
{
    if (c.uncompressed)
        return twoTo64;
    unsigned window_bits = exponent(c.top - c.base) + mantissa;
    if (window_bits >= 64)
        return twoTo64;
    return (u128{1} << window_bits) / 4;
}

/** CSetAddr: the cursor moves; the tag survives only on an unsealed
 *  capability whose new cursor is representable. */
Cap
setAddress(Cap c, u64 a)
{
    c.tag = c.tag && !c.sealed && representable(c, a);
    c.addr = a;
    return c;
}

/** CIncOffset: the cursor moves by @p delta modulo 2^64. */
Cap
incAddress(const Cap &c, s64 delta)
{
    s128 moved = static_cast<s128>(c.addr) + delta;
    return setAddress(c, static_cast<u64>(static_cast<u128>(moved) &
                                          (twoTo64 - 1)));
}

/**
 * The access check: tag, then seal, then each requested hardware
 * permission in architectural order (any other missing bit reports as
 * the store-local permission), then [addr, addr + size) within
 * [base, top) with the end computed without wrapping.
 */
std::optional<CapFault>
access(const Cap &c, u64 addr, u64 size, u32 req)
{
    static const std::pair<u32, CapFault> order[] = {
        {PERM_LOAD, CapFault::PermitLoadViolation},
        {PERM_STORE, CapFault::PermitStoreViolation},
        {PERM_EXECUTE, CapFault::PermitExecuteViolation},
        {PERM_LOAD_CAP, CapFault::PermitLoadCapViolation},
        {PERM_STORE_CAP, CapFault::PermitStoreCapViolation},
    };
    if (!c.tag)
        return CapFault::TagViolation;
    if (c.sealed)
        return CapFault::SealViolation;
    u32 missing = req & ~c.perms;
    for (const auto &[perm, fault] : order) {
        if (missing & perm)
            return fault;
    }
    if (missing)
        return CapFault::PermitStoreLocalCapViolation;
    if (u128{addr} < c.base || u128{addr} + u128{size} > c.top)
        return CapFault::LengthViolation;
    return std::nullopt;
}

} // namespace ref

/** Seed the reference from an implementation value's fields. */
ref::Cap
toRef(const Capability &c)
{
    ref::Cap r;
    r.tag = c.tag();
    r.base = c.base();
    r.top = c.top();
    r.addr = c.address();
    r.perms = c.perms();
    r.sealed = c.sealed();
    r.uncompressed = c.format() == compress::CapFormat::Cap256;
    return r;
}

/** Both values agree on every architectural field. */
void
expectSame(const Capability &got, const ref::Cap &want, const char *what,
           const Capability &from)
{
    SCOPED_TRACE(std::string(what) + " from " + from.toString());
    EXPECT_EQ(got.tag(), want.tag);
    EXPECT_EQ(u128{got.base()}, want.base);
    EXPECT_EQ(got.top(), want.top);
    EXPECT_EQ(u128{got.address()}, want.addr);
    EXPECT_EQ(got.perms(), want.perms);
    EXPECT_EQ(got.sealed(), want.sealed);
    EXPECT_EQ(got.format(), from.format());
    EXPECT_EQ(got.otype(), from.otype());
}

/** Every permission bit a request can name (hardware and vmmap). */
constexpr u32 requestable[] = {
    PERM_LOAD,      PERM_STORE,           PERM_EXECUTE,
    PERM_LOAD_CAP,  PERM_STORE_CAP,       PERM_STORE_LOCAL_CAP,
    PERM_GLOBAL,    PERM_SW_VMMAP,
};
constexpr unsigned numRequestable = std::size(requestable);

u32
requestSubset(unsigned bits)
{
    u32 req = 0;
    for (unsigned i = 0; i < numRequestable; ++i) {
        if (bits & (1u << i))
            req |= requestable[i];
    }
    return req;
}

/** Seeded generator of capabilities across every shape the fast paths
 *  distinguish. */
class CapGen
{
  public:
    explicit CapGen(u64 seed) : rng(seed) {}

    u64 next() { return rng(); }

    /** A length drawn across magnitudes, zero included. */
    u64
    length()
    {
        switch (rng() % 6) {
          case 0:
            return 0;
          case 1:
            return 1 + rng() % 64;
          case 2:
            return 1 + rng() % 0x10000;
          case 3: // a power of two, or one either side of it
            return (u64{1} << (rng() % 48)) + (rng() % 3) - 1;
          case 4:
            return rng() >> (16 + rng() % 40);
          default:
            return rng() % 0x2000 + 0x1FFF;
        }
    }

    Capability
    make()
    {
        auto fmt = rng() % 2 ? compress::CapFormat::Cap128
                             : compress::CapFormat::Cap256;
        Capability c = Capability::root(fmt);
        switch (rng() % 5) {
          case 0: // the whole address space
            break;
          case 1: { // an aligned power-of-two region ending at 2^64
            u64 len = u64{1} << (rng() % 64);
            c = c.setAddress(0 - len).setBounds(len).value();
            break;
          }
          default: {
            u64 len = length();
            u64 base = rng() >> (rng() % 64);
            auto r = c.setAddress(base).setBounds(len);
            if (r.ok())
                c = r.value();
            break;
          }
        }
        if (rng() % 3)
            c = c.andPerms(static_cast<u32>(rng()) & permsAll).value();
        // Put the cursor somewhere in or near the bounds.
        u64 span = c.length();
        u64 at = span == ~u64{0} ? rng() : c.base() + rng() % (span + 1);
        c = c.setAddress(at);
        switch (rng() % 6) {
          case 0:
            return c.withoutTag();
          case 1:
            return Capability::fromAddress(rng());
          case 2: { // sealed with an otype from a sealing authority
            u64 otype = rng() % (otypeMax + 1);
            Capability sealer = Capability::root().setAddress(otype);
            auto s = c.seal(sealer);
            return s.ok() ? s.value() : c;
          }
          default:
            return c;
        }
    }

    /** An access (addr, size) that lands on or near the bounds, or
     *  wraps past 2^64. */
    std::pair<u64, u64>
    access(const Capability &c)
    {
        u64 base = c.base();
        u64 top = c.top() >= ref::twoTo64 ? ~u64{0}
                                          : static_cast<u64>(c.top());
        static const u64 sizes[] = {0, 1, 8, 16, 32, 4096};
        u64 size = sizes[rng() % std::size(sizes)];
        switch (rng() % 8) {
          case 0:
            return {base, size};
          case 1:
            return {top - size, size};
          case 2:
            return {top - size + 1, size};
          case 3:
            return {base - 1, size};
          case 4: // the end wraps past 2^64
            return {base + rng() % 64, ~u64{0} - rng() % 128};
          case 5:
            return {~u64{0} - rng() % 32, 1 + rng() % 64};
          case 6:
            return {c.address(), size};
          default:
            return {rng(), rng() >> (rng() % 64)};
        }
    }

  private:
    std::mt19937_64 rng;
};

class CapReference : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CapReference, CheckAccessCauseAndPriority)
{
    CapGen gen(GetParam());
    std::set<CapFault> seen;
    bool passed = false;
    for (int i = 0; i < 300; ++i) {
        Capability c = gen.make();
        ref::Cap r = toRef(c);
        for (int k = 0; k < 4; ++k) {
            auto [addr, size] = gen.access(c);
            for (unsigned bits = 0; bits < (1u << numRequestable);
                 ++bits) {
                u32 req = requestSubset(bits);
                CapCheck got = c.checkAccess(addr, size, req);
                std::optional<CapFault> want = ref::access(r, addr, size,
                                                           req);
                ASSERT_EQ(got, want)
                    << c.toString() << " addr 0x" << std::hex << addr
                    << " size 0x" << size << " req 0x" << req;
                if (got)
                    seen.insert(*got);
                else
                    passed = true;
            }
        }
    }
    // Every branch of the rule order was exercised, not just a few.
    EXPECT_TRUE(passed);
    for (CapFault f : {CapFault::TagViolation, CapFault::SealViolation,
                       CapFault::PermitLoadViolation,
                       CapFault::PermitStoreViolation,
                       CapFault::PermitExecuteViolation,
                       CapFault::PermitLoadCapViolation,
                       CapFault::PermitStoreCapViolation,
                       CapFault::PermitStoreLocalCapViolation,
                       CapFault::LengthViolation})
        EXPECT_TRUE(seen.count(f)) << capFaultName(f) << " never raised";
}

TEST_P(CapReference, CursorMovesAroundTheRepresentableWindow)
{
    CapGen gen(GetParam() + 1000);
    u64 kept = 0, cleared = 0;
    for (int i = 0; i < 2000; ++i) {
        Capability c = gen.make();
        ref::Cap r = toRef(c);
        // Targets on each side of the bounds and of the slack edge:
        // less than, exactly, and more than the slack away.
        u128 s = ref::slack(r);
        std::vector<u128> targets = {r.base, r.top, r.base - 1, r.top + 1,
                                     gen.next()};
        for (int d = -1; d <= 1; ++d) {
            if (s < ref::twoTo64) {
                targets.push_back(r.base - s + d);
                targets.push_back(r.top + s + d);
            }
        }
        for (u128 t : targets) {
            if (t >= ref::twoTo64) // below 0 or above 2^64 - 1
                continue;
            u64 a = static_cast<u64>(t);
            Capability set = c.setAddress(a);
            expectSame(set, ref::setAddress(r, a), "setAddress", c);
            s64 delta = static_cast<s64>(a - c.address());
            Capability inc = c.incAddress(delta);
            expectSame(inc, ref::incAddress(r, delta), "incAddress", c);
            (inc.tag() ? kept : cleared) += 1;
        }
        // Deltas that wrap the cursor around 2^64.
        s64 wrap = static_cast<s64>(gen.next());
        expectSame(c.incAddress(wrap), ref::incAddress(r, wrap),
                   "incAddress (wrap)", c);
        if (HasFailure())
            return;
    }
    EXPECT_GT(kept, 0u);
    EXPECT_GT(cleared, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CapReference, ::testing::Range(1u, 9u));

/** Fixed cases the generator might only reach by luck. */
TEST(CapReferenceEdges, WrappingAccessOnTheWholeSpaceIsOutOfBounds)
{
    Capability root = Capability::root();
    ref::Cap r = toRef(root);
    const u64 addr = ~u64{0} - 7;
    for (u64 size : {u64{8}, u64{9}, u64{16}, ~u64{0}}) {
        EXPECT_EQ(root.checkAccess(addr, size, PERM_LOAD),
                  ref::access(r, addr, size, PERM_LOAD))
            << "size " << size;
    }
    EXPECT_FALSE(root.checkAccess(addr, 8, PERM_LOAD).has_value());
    EXPECT_EQ(root.checkAccess(addr, 9, PERM_LOAD),
              CapFault::LengthViolation);
}

TEST(CapReferenceEdges, SealedCapabilityInBoundsStillFaultsAndUntags)
{
    Capability c =
        Capability::root().setAddress(0x10000).setBounds(0x100).value();
    Capability sealed =
        c.seal(Capability::root().setAddress(42)).value();
    ref::Cap r = toRef(sealed);
    EXPECT_EQ(sealed.checkAccess(0x10000, 8, PERM_LOAD),
              CapFault::SealViolation);
    EXPECT_EQ(ref::access(r, 0x10000, 8, PERM_LOAD),
              CapFault::SealViolation);
    // A move that stays in bounds still strips a sealed value's tag.
    EXPECT_FALSE(sealed.incAddress(8).tag());
    EXPECT_FALSE(ref::incAddress(r, 8).tag);
}

TEST(CapReferenceEdges, ZeroLengthRegion)
{
    Capability c =
        Capability::root().setAddress(0x40000).setBounds(0).value();
    ref::Cap r = toRef(c);
    EXPECT_EQ(c.top(), u128{c.base()});
    for (u64 size : {u64{0}, u64{1}}) {
        EXPECT_EQ(c.checkAccess(0x40000, size, PERM_LOAD),
                  ref::access(r, 0x40000, size, PERM_LOAD));
    }
    EXPECT_FALSE(c.checkAccess(0x40000, 0, PERM_LOAD).has_value());
    for (s64 d : {s64{-1}, s64{0}, s64{1}, s64{1} << 12, s64{1} << 13}) {
        expectSame(c.incAddress(d), ref::incAddress(r, d), "incAddress",
                   c);
    }
}

} // namespace
} // namespace cheri
