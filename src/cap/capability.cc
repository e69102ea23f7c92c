#include "cap/capability.h"

#include <cstring>
#include <sstream>

namespace cheri
{

namespace
{

constexpr u128 fullTop = u128{1} << 64;

} // namespace

Capability::Capability(bool tag, u64 base, u128 top, u64 address, u32 perms,
                       OType otype, compress::CapFormat fmt)
    : _top(top), _base(base), _address(address), _perms(perms),
      _otype(otype), _tag(tag), _format(fmt)
{
}

Capability
Capability::root(compress::CapFormat fmt)
{
    return Capability(true, 0, fullTop, 0, permsAll, otypeUnsealed, fmt);
}

Capability
Capability::fromAddress(u64 addr)
{
    Capability c;
    c._address = addr;
    return c;
}

u64
Capability::length() const
{
    u128 len = _top - _base;
    if (len > u128{~u64{0}})
        return ~u64{0};
    return static_cast<u64>(len);
}

bool
Capability::keepsTagAt(u64 addr) const
{
    // Sealed capabilities are immutable; mutating one strips validity.
    return !sealed() &&
           compress::addressRepresentable(_base, _top, addr, _format);
}

Result<Capability>
Capability::setBounds(u64 len) const
{
    if (!_tag)
        return CapFault::TagViolation;
    if (sealed())
        return CapFault::SealViolation;
    u64 new_base = _address;
    u64 rep_len = compress::representableLength(len, _format);
    u64 mask = compress::representableAlignmentMask(len, _format);
    u64 aligned_base = new_base & mask;
    u128 new_top = u128{aligned_base} + rep_len;
    // Monotonicity: the (possibly rounded) bounds must stay within ours.
    if (aligned_base < _base || new_top > _top)
        return CapFault::LengthViolation;
    // The cursor must sit within the requested region.
    if (u128{new_base} + len > _top)
        return CapFault::LengthViolation;
    Capability out = *this;
    out._base = aligned_base;
    out._top = new_top;
    return out;
}

Result<Capability>
Capability::setBoundsExact(u64 len) const
{
    Result<Capability> r = setBounds(len);
    if (!r.ok())
        return r;
    const Capability &c = r.value();
    if (c.base() != _address || c.top() != u128{_address} + len)
        return CapFault::InexactBoundsViolation;
    return r;
}

Result<Capability>
Capability::andPerms(u32 mask) const
{
    if (!_tag)
        return CapFault::TagViolation;
    if (sealed())
        return CapFault::SealViolation;
    Capability out = *this;
    out._perms &= mask;
    return out;
}

Capability
Capability::withoutTag() const
{
    Capability out = *this;
    out._tag = false;
    return out;
}

Result<Capability>
Capability::seal(const Capability &authority) const
{
    if (!_tag || !authority.tag())
        return CapFault::TagViolation;
    if (sealed() || authority.sealed())
        return CapFault::SealViolation;
    if (!authority.hasPerms(PERM_SEAL))
        return CapFault::PermitSealViolation;
    u64 otype = authority.address();
    if (otype > otypeMax || !authority.inBounds(otype, 1))
        return CapFault::TypeViolation;
    Capability out = *this;
    out._otype = static_cast<OType>(otype);
    return out;
}

Result<Capability>
Capability::unseal(const Capability &authority) const
{
    if (!_tag || !authority.tag())
        return CapFault::TagViolation;
    if (!sealed())
        return CapFault::SealViolation;
    if (authority.sealed())
        return CapFault::SealViolation;
    if (!authority.hasPerms(PERM_UNSEAL))
        return CapFault::PermitUnsealViolation;
    if (authority.address() != _otype || !authority.inBounds(_otype, 1))
        return CapFault::TypeViolation;
    Capability out = *this;
    out._otype = otypeUnsealed;
    return out;
}

Result<Capability>
Capability::build(const Capability &authority, const Capability &bits)
{
    if (!authority.tag())
        return CapFault::TagViolation;
    if (authority.sealed())
        return CapFault::SealViolation;
    // The authority must dominate the requested pattern in both bounds
    // and permissions; otherwise rederivation would be a privilege
    // escalation rather than a restoration.
    if (bits.base() < authority.base() || bits.top() > authority.top())
        return CapFault::LengthViolation;
    if ((bits.perms() & authority.perms()) != bits.perms())
        return CapFault::MonotonicityViolation;
    if (bits.base() > bits.top())
        return CapFault::LengthViolation;
    Capability out = bits;
    out._tag = true;
    out._otype = otypeUnsealed;
    out._format = authority.format();
    return out;
}

CapCheck
Capability::checkAccessSlow(u64 addr, u64 size, u32 req_perms) const
{
    if (!_tag)
        return CapFault::TagViolation;
    if (sealed())
        return CapFault::SealViolation;
    if ((req_perms & PERM_LOAD) && !(_perms & PERM_LOAD))
        return CapFault::PermitLoadViolation;
    if ((req_perms & PERM_STORE) && !(_perms & PERM_STORE))
        return CapFault::PermitStoreViolation;
    if ((req_perms & PERM_EXECUTE) && !(_perms & PERM_EXECUTE))
        return CapFault::PermitExecuteViolation;
    if ((req_perms & PERM_LOAD_CAP) && !(_perms & PERM_LOAD_CAP))
        return CapFault::PermitLoadCapViolation;
    if ((req_perms & PERM_STORE_CAP) && !(_perms & PERM_STORE_CAP))
        return CapFault::PermitStoreCapViolation;
    const u32 other = req_perms &
        ~(PERM_LOAD | PERM_STORE | PERM_EXECUTE | PERM_LOAD_CAP |
          PERM_STORE_CAP);
    if (other && !hasPerms(other))
        return CapFault::PermitStoreLocalCapViolation;
    if (!inBounds(addr, size))
        return CapFault::LengthViolation;
    return std::nullopt;
}

std::array<u8, capSize>
Capability::toBytes() const
{
    // The 128-bit in-memory format: cursor in the low 64 bits, packed
    // metadata in the high 64.  The bounds themselves are recovered from
    // the tag side-structure on tagged loads (see PhysMem); an untagged
    // pattern decodes to an integer-only capability, exactly as raw
    // data must.
    std::array<u8, capSize> out{};
    std::memcpy(out.data(), &_address, 8);
    u64 meta = _hasRawMeta ? _rawMeta
                           : (u64{_perms} << 32) | u64{_otype & 0x3FFFF} |
                                 (u64{sealed()} << 18);
    std::memcpy(out.data() + 8, &meta, 8);
    return out;
}

Capability
Capability::fromBytes(const std::array<u8, capSize> &bytes)
{
    u64 addr;
    std::memcpy(&addr, bytes.data(), 8);
    Capability c = fromAddress(addr);
    std::memcpy(&c._rawMeta, bytes.data() + 8, 8);
    c._hasRawMeta = true;
    return c;
}

std::string
Capability::toString() const
{
    std::ostringstream os;
    os << "cap[" << (_tag ? "t" : "-") << " 0x" << std::hex << _base << "-0x"
       << static_cast<u64>(_top > u128{~u64{0}} ? ~u64{0}
                                                : static_cast<u64>(_top))
       << " @0x" << _address << " " << std::dec << permsToString(_perms);
    if (sealed())
        os << " sealed:" << _otype;
    os << "]";
    return os.str();
}

} // namespace cheri
