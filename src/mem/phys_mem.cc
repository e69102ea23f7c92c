#include "mem/phys_mem.h"

#include "mem/mem_events.h"
#include "os/panic.h"

namespace cheri
{

void
Frame::copyFrom(const Frame &other)
{
    data = other.data;
    tags = other.tags;
    // Untagged granules' entries are never read: copy only the
    // capabilities the page holds.
    other.forEachTagged(
        [&](u64 off, const Capability &cap) { caps[off / capSize] = cap; });
    _stamp = nextChangeStamp();
}

void
Frame::clear()
{
    data.fill(0);
    tags.fill(0);
    _stamp = nextChangeStamp();
}

Capability
Frame::readCap(u64 off) const
{
    CHERI_KASSERT(off % capSize == 0 && off + capSize <= pageSize,
                  "cap load granule-aligned and in page");
    u64 g = off / capSize;
    if (tagAt(off))
        return caps[g];
    std::array<u8, capSize> raw;
    std::memcpy(raw.data(), data.data() + off, capSize);
    return Capability::fromBytes(raw);
}

void
Frame::writeCap(u64 off, const Capability &cap)
{
    CHERI_KASSERT(off % capSize == 0 && off + capSize <= pageSize,
                  "cap store granule-aligned and in page");
    u64 g = off / capSize;
    auto raw = cap.toBytes();
    std::memcpy(data.data() + off, raw.data(), capSize);
    if (cap.tag())
        tags[g / 64] |= u64{1} << (g % 64);
    else
        tags[g / 64] &= ~(u64{1} << (g % 64));
    caps[g] = cap;
    _stamp = nextChangeStamp();
}

bool
PhysMem::makeRoom(u64 n, const void *requester)
{
    if (capacity == 0 || *live + n <= capacity)
        return true;
    if (memEvents) {
        ++reclaims;
        memEvents->reclaim(*live + n - capacity, requester);
    }
    return *live + n <= capacity;
}

FrameRef
PhysMem::allocFrame(const void *requester)
{
    if (injector && injector->shouldFail(FaultPoint::FrameAlloc)) {
        ++failed;
        return nullptr;
    }
    if (!makeRoom(1, requester)) {
        ++failed;
        return nullptr;
    }
    ++allocated;
    auto counter = live;
    ++*counter;
    return FrameRef(new Frame(), [counter](Frame *f) {
        --*counter;
        delete f;
    });
}

bool
PhysMem::canAlloc(u64 n, const void *requester)
{
    if (injector && injector->shouldFail(FaultPoint::FrameAlloc)) {
        ++failed;
        return false;
    }
    if (!makeRoom(n, requester)) {
        ++failed;
        return false;
    }
    return true;
}

u64
PhysMem::liveFrames() const
{
    return *live;
}

void
PhysMem::corruptCapLoad(Frame &frame, u64 off, u64 va)
{
    // The modeled bit flip: the granule's tag is gone before the load
    // completes, so the corrupted pattern can never decode back into a
    // dereferenceable capability.
    frame.clearTagAt(off);
    noteCorruption(FaultPoint::TagBitFlip, va);
}

void
PhysMem::noteCorruption(FaultPoint point, u64 va)
{
    if (memEvents)
        memEvents->machineCheck(point, va);
}

} // namespace cheri
