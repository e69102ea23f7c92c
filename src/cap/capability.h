/**
 * @file
 * The architectural capability value type.
 *
 * A Capability models a CHERI capability register value: a 64-bit cursor
 * (address), bounds [base, top) with top up to 2^64, a permission mask,
 * an object type (sealing), and the out-of-band validity tag.  All
 * mutating operations are monotonic — they can narrow bounds and shed
 * permissions but never widen or regain them — and return either a new
 * value or the architectural fault the operation would raise.
 *
 * Untagged capabilities are plain data: they can be copied and inspected
 * but never dereferenced, sealed, or used as derivation authority; this
 * is the provenance-validity property the paper builds on.
 */

#ifndef CHERI_CAP_CAPABILITY_H
#define CHERI_CAP_CAPABILITY_H

#include <array>
#include <string>

#include "cap/compression.h"
#include "cap/fault.h"
#include "cap/perms.h"
#include "cap/result.h"
#include "cap/types.h"

namespace cheri
{

namespace snap
{
struct Access;
}

class Capability
{
  public:
    /** The NULL capability: untagged, zero bounds, zero address. */
    Capability() = default;

    /**
     * The primordial capability made available at CPU reset: tagged,
     * spanning the whole address space with all permissions.  Everything
     * else is transitively derived from this (provenance validity).
     */
    static Capability root(
        compress::CapFormat fmt = compress::CapFormat::Cap128);

    /** An untagged capability holding just an integer address. */
    static Capability fromAddress(u64 addr);

    /** @name Field accessors */
    /// @{
    bool tag() const { return _tag; }
    u64 base() const { return _base; }
    u128 top() const { return _top; }
    u64 address() const { return _address; }
    /** Cursor position relative to base. */
    u64 offset() const { return _address - _base; }
    /** Region length; saturates at 2^64 - 1 for whole-address-space. */
    u64 length() const;
    u32 perms() const { return _perms; }
    OType otype() const { return _otype; }
    bool sealed() const { return _otype != otypeUnsealed; }
    compress::CapFormat format() const { return _format; }
    bool isNull() const { return !_tag && _address == 0; }
    /// @}

    /** True when [addr, addr+size) lies within bounds.  The sum is
     *  taken in 128 bits, so an access wrapping past 2^64 is out. */
    bool
    inBounds(u64 addr, u64 size) const
    {
        return addr >= _base && u128{addr} + size <= _top;
    }

    /** True when this capability has every permission in @p mask. */
    bool hasPerms(u32 mask) const { return (_perms & mask) == mask; }

    /**
     * CSetAddr: move the cursor to an absolute address.  Clears the tag
     * if the capability is sealed or the address leaves the representable
     * space; bounds and permissions are unchanged (C pointer arithmetic
     * never widens privilege).
     *
     * Inline: an untagged value, or a tagged, unsealed cursor staying
     * in [base, top], needs no representability test (compression.h:
     * every in-bounds address, top included, is representable).
     */
    Capability
    setAddress(u64 addr) const
    {
        Capability out = *this;
        out._address = addr;
        if (_tag && (sealed() || addr < _base || u128{addr} > _top))
            out._tag = keepsTagAt(addr);
        return out;
    }

    /** CIncOffset: pointer arithmetic — setAddress(address() + delta). */
    Capability
    incAddress(s64 delta) const
    {
        return setAddress(_address + static_cast<u64>(delta));
    }

    /**
     * CSetBounds: narrow bounds to [address, address+len), rounded
     * outward as compression requires.  Faults on untagged or sealed
     * inputs, and on any attempt to exceed the existing bounds
     * (monotonicity).
     */
    Result<Capability> setBounds(u64 len) const;

    /** CSetBoundsExact: as setBounds but faults if rounding was needed. */
    Result<Capability> setBoundsExact(u64 len) const;

    /**
     * CAndPerm: intersect the permission mask with @p mask.  Faults on
     * untagged or sealed inputs.
     */
    Result<Capability> andPerms(u32 mask) const;

    /** CClearTag: forget validity, keeping the data bits. */
    Capability withoutTag() const;

    /**
     * CSeal: produce a sealed (immutable, non-dereferenceable) capability
     * with the otype given by @p authority's address.  @p authority must
     * be tagged, unsealed, hold PERM_SEAL, and have the otype in bounds.
     */
    Result<Capability> seal(const Capability &authority) const;

    /** CUnseal: the inverse, requiring PERM_UNSEAL over our otype. */
    Result<Capability> unseal(const Capability &authority) const;

    /**
     * CBuildCap: rederive a tagged capability matching the untagged
     * pattern @p bits from a tagged authority whose bounds and perms
     * cover it.  This is how the kernel restores capabilities whose
     * architectural chain was broken — swap-in, debugger injection,
     * core-dump restore (paper section 3).
     */
    static Result<Capability> build(const Capability &authority,
                                    const Capability &bits);

    /**
     * Full access check as performed by a capability load/store/fetch:
     * tag set, unsealed, [addr, addr+size) within bounds, and all of
     * @p req_perms present.  Returns the fault or std::nullopt.
     *
     * Inline: an access that passes every check returns at once; any
     * other input takes checkAccessSlow, which tests each rule in
     * priority order, so the reported cause never depends on the path.
     */
    CapCheck
    checkAccess(u64 addr, u64 size, u32 req_perms) const
    {
        if (_tag && !sealed() && hasPerms(req_perms) && inBounds(addr, size))
            return std::nullopt;
        return checkAccessSlow(addr, size, req_perms);
    }

    /**
     * In-memory representation (16 bytes; the tag travels out of band).
     * Deserializing yields an *untagged* capability — raw bytes never
     * carry provenance; only PhysMem's tag bits can mark a granule valid.
     */
    std::array<u8, capSize> toBytes() const;
    static Capability fromBytes(const std::array<u8, capSize> &bytes);

    /** Exact structural equality of the architectural fields. */
    bool
    operator==(const Capability &other) const
    {
        return _tag == other._tag && _base == other._base &&
               _top == other._top && _address == other._address &&
               _perms == other._perms && _otype == other._otype;
    }

    /** Diagnostic rendering, e.g. "cap[t 0x1000-0x2000 @0x1004 rwRW]". */
    std::string toString() const;

  private:
    /** Checkpoint/restore needs bit-exact field access (the public
     *  surface is deliberately monotonic and cannot rebuild an
     *  arbitrary tagged value). */
    friend struct snap::Access;

    Capability(bool tag, u64 base, u128 top, u64 address, u32 perms,
               OType otype, compress::CapFormat fmt);

    /** Out-of-line half of setAddress: whether this tagged capability
     *  keeps its tag with its cursor at @p addr (unsealed and
     *  representable). */
    bool keepsTagAt(u64 addr) const;

    /** The full access check, one rule at a time in priority order. */
    CapCheck checkAccessSlow(u64 addr, u64 size, u32 req_perms) const;

    // Widest fields first: 64 bytes with no padding hole.
    u128 _top = 0;
    u64 _base = 0;
    u64 _address = 0;
    /**
     * For untagged patterns loaded from memory: the verbatim second
     * 8 bytes.  Hardware capability loads of untagged data preserve all
     * 128 bits as data; this keeps memcpy-via-capability-registers
     * byte-exact for non-pointer payloads.
     */
    u64 _rawMeta = 0;
    u32 _perms = 0;
    OType _otype = otypeUnsealed;
    bool _tag = false;
    bool _hasRawMeta = false;
    compress::CapFormat _format = compress::CapFormat::Cap128;
};

// Every Frame holds one per granule, and every pointer step copies one.
static_assert(sizeof(Capability) == 64);

} // namespace cheri

#endif // CHERI_CAP_CAPABILITY_H
