/**
 * @file
 * The checking layer's one digest: a word-wide running hash shared by
 * the replay log's quiescent-point digests (register file, kernel
 * counters) and the differential fuzzer's final memory images.
 *
 * The step folds one u64 per call — one multiply, not the eight a
 * byte-wise hash spends — and has the two properties the checks rely on:
 *
 *  - for a fixed word it is a bijection of the running state (xor,
 *    multiply by an odd constant and an xorshift are each invertible),
 *    and for a fixed state it is injective in the word, so changing any
 *    single hashed word always changes the digest;
 *  - the closing xorshift folds the high bits down, so flips confined
 *    to the top bit of two words cannot cancel, as they do under a bare
 *    `(h ^ v) * odd` (the multiply only carries upwards).
 *
 * Only field values are hashed, never object bytes: a `Capability`'s
 * representation includes padding and the raw-metadata word.
 */

#ifndef CHERI_CHECK_DIGEST_H
#define CHERI_CHECK_DIGEST_H

#include <cstddef>

#include "machine/regs.h"

namespace cheri
{
class Kernel;
}

namespace cheri::check
{

/** The running state every digest starts from. */
constexpr u64 digestSeed = 0x243f6a8885a308d3ULL;

/** Fold the word @p v into the running digest @p h. */
constexpr u64
digestStep(u64 h, u64 v)
{
    h ^= v;
    h *= 0x9e3779b97f4a7c15ULL;
    return h ^ (h >> 29);
}

/** Digest of @p n consecutive words, continuing from @p h. */
constexpr u64
digestWords(const u64 *w, std::size_t n, u64 h = digestSeed)
{
    for (std::size_t i = 0; i < n; ++i)
        h = digestStep(h, w[i]);
    return h;
}

/** The full register file, capability tags included: tag, base, both
 *  halves of top, address, perms and otype of pcc, ddc and every c[i],
 *  then every x[i]. */
u64 hashRegs(const ThreadRegs &r);

/** The kernel's observable counters: the physical allocator's totals,
 *  then every KernelCounters field, walked through the blocks' field
 *  lists (os/counters.h), so a new counter joins the digest by
 *  itself. */
u64 hashStats(Kernel &kern);

} // namespace cheri::check

#endif // CHERI_CHECK_DIGEST_H
