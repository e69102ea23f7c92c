#include "machine/host_pool.h"

#include <new>
#include <vector>

#include <sanitizer/asan_interface.h>

namespace cheri::hostpool
{

namespace
{

/** Set once this thread's pool is destroyed: frames or caches that
 *  outlive it (static objects) then go straight back to malloc. */
thread_local bool poolGone = false;

/** One thread's free blocks, one list per block size. */
struct Pool
{
    /** Distinct sizes tracked at once; an empty list gives up its
     *  size to a new one. */
    static constexpr std::size_t maxSizes = 16;

    struct Bucket
    {
        std::size_t size;
        std::vector<void *> blocks;
    };
    std::vector<Bucket> buckets;
    std::size_t held = 0;

    ~Pool()
    {
        poolGone = true;
        for (Bucket &b : buckets) {
            for (void *p : b.blocks) {
                ASAN_UNPOISON_MEMORY_REGION(p, b.size);
                ::operator delete(p);
            }
        }
    }

    /** The list for @p size, claiming one if needed; nullptr when
     *  every list is taken by other sizes. */
    Bucket *
    bucketFor(std::size_t size)
    {
        Bucket *unused = nullptr;
        for (Bucket &b : buckets) {
            if (b.size == size)
                return &b;
            if (!unused && b.blocks.empty())
                unused = &b;
        }
        if (buckets.size() < maxSizes)
            return &buckets.emplace_back(Bucket{size, {}});
        if (unused)
            unused->size = size;
        return unused;
    }
};

thread_local Pool pool;

} // namespace

void *
alloc(std::size_t bytes)
{
    if (bytes >= minBytes && !poolGone) {
        for (Pool::Bucket &b : pool.buckets) {
            if (b.size == bytes && !b.blocks.empty()) {
                void *p = b.blocks.back();
                b.blocks.pop_back();
                pool.held -= bytes;
                ASAN_UNPOISON_MEMORY_REGION(p, bytes);
                return p;
            }
        }
    }
    return ::operator new(bytes);
}

void
release(void *p, std::size_t bytes) noexcept
{
    if (bytes >= minBytes && !poolGone && pool.held + bytes <= maxBytes) {
        try {
            if (Pool::Bucket *b = pool.bucketFor(bytes)) {
                b->blocks.push_back(p);
                pool.held += bytes;
                // A held block is freed memory to everyone but the
                // pool: under ASan, touching it is a use after free.
                ASAN_POISON_MEMORY_REGION(p, bytes);
                return;
            }
        } catch (const std::bad_alloc &) {
            // No room to remember the block: hand it back instead.
        }
    }
    ::operator delete(p);
}

} // namespace cheri::hostpool
