/**
 * @file
 * Reuse of large host allocations across processes and kernels.
 *
 * The model's bulk arrays come and go with every process: its frames
 * (about 24 KiB of host memory each) and its modelled cache arrays
 * (96 KiB for the L2).  Handed back to malloc, blocks that large
 * coalesce at the top
 * of the heap and glibc trims it, so the next process faults the same
 * pages in again: host page faults on every exec, fork and exit, whose
 * cost follows the host's load rather than the simulation.  Blocks of
 * minBytes and up are instead kept on per-thread free lists, by exact
 * size (a handful of sizes in practice), up to maxBytes in all, and
 * handed out again before malloc is asked.  Smaller blocks go straight
 * to malloc.
 */

#ifndef CHERI_MACHINE_HOST_POOL_H
#define CHERI_MACHINE_HOST_POOL_H

#include <cstddef>

namespace cheri::hostpool
{

constexpr std::size_t minBytes = std::size_t{16} << 10;
constexpr std::size_t maxBytes = std::size_t{2} << 20;

/** A block of @p bytes; throws std::bad_alloc like new. */
void *alloc(std::size_t bytes);

/** Return a block alloc(@p bytes) handed out. */
void release(void *p, std::size_t bytes) noexcept;

/** Stateless allocator over alloc/release, for std containers. */
template <typename T>
struct Allocator
{
    using value_type = T;

    Allocator() = default;
    template <typename U>
    Allocator(const Allocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(alloc(n * sizeof(T)));
    }
    void
    deallocate(T *p, std::size_t n) noexcept
    {
        release(p, n * sizeof(T));
    }

    friend bool
    operator==(const Allocator &, const Allocator &)
    {
        return true;
    }
};

} // namespace cheri::hostpool

#endif // CHERI_MACHINE_HOST_POOL_H
