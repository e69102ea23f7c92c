/**
 * @file
 * CHERI-Concentrate style bounds-compression model.
 *
 * 128-bit CHERI capabilities cannot carry full 64-bit base and top fields;
 * they encode bounds relative to the address with a shared exponent and
 * truncated mantissas (the paper's footnote 2).  Two consequences matter
 * for CheriABI and are modeled here:
 *
 *  1. *Precision*: objects longer than the mantissa can express must have
 *     base and length aligned to 1 << exponent; otherwise CSetBounds
 *     rounds the bounds outward (or CSetBoundsExact faults).  Allocators
 *     and stack layout must therefore pad allocations (the PS
 *     compatibility class in Table 2).
 *
 *  2. *Representable space*: the address (cursor) may stray somewhat
 *     outside the bounds — as C permits for one-past-the-end and common
 *     idioms require — but only within a window proportional to the
 *     object size.  Beyond it the capability becomes unrepresentable and
 *     its tag is cleared.
 *
 * The model exposes the two derived quantities software uses:
 * CRepresentableLength (CRRL) and CRepresentableAlignmentMask (CRAM).
 */

#ifndef CHERI_CAP_COMPRESSION_H
#define CHERI_CAP_COMPRESSION_H

#include "cap/types.h"

namespace cheri::compress
{

/** Capability in-memory formats supported by the model (one byte, so
 *  Capability packs into 64 bytes). */
enum class CapFormat : u8
{
    /** 128-bit compressed format (benchmarked format in the paper). */
    Cap128,
    /** 256-bit uncompressed format: exact bounds, no representable slack
     *  limits beyond the address space itself. */
    Cap256,
};

/** Mantissa width of the 128-bit format (CHERI-128 uses 14 bits). */
constexpr unsigned mantissaWidth = 14;

/**
 * Exponent chosen by the encoder for a region of @p length bytes: the
 * smallest E such that length >> E fits in the mantissa.
 */
unsigned exponentFor(u64 length);

/**
 * CRRL: the representable length — @p length rounded up to the coarsest
 * granule the chosen exponent can express.  A zero-length region is
 * always representable.
 */
u64 representableLength(u64 length, CapFormat fmt = CapFormat::Cap128);

/**
 * CRAM: alignment mask a base must satisfy for a region of @p length
 * bytes to have exactly representable bounds.
 */
u64 representableAlignmentMask(u64 length, CapFormat fmt = CapFormat::Cap128);

/**
 * Whether the bounds [base, base+length) are exactly representable
 * without rounding.
 */
bool boundsExactlyRepresentable(u64 base, u64 length,
                                CapFormat fmt = CapFormat::Cap128);

/**
 * Whether an address remains within the representable space of a
 * capability with the given bounds — i.e., whether setting the cursor to
 * @p addr preserves the tag.  In-bounds addresses (including top) are
 * always representable; out-of-bounds addresses are representable only
 * within a window proportional to the region size.
 */
bool addressRepresentable(u64 base, u128 top, u64 addr,
                          CapFormat fmt = CapFormat::Cap128);

/** Size of the out-of-bounds roaming slack for a region of given size. */
u64 representableSlack(u64 length, CapFormat fmt = CapFormat::Cap128);

} // namespace cheri::compress

#endif // CHERI_CAP_COMPRESSION_H
