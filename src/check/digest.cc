#include "check/digest.h"

#include "os/kernel.h"

namespace cheri::check
{

namespace
{

u64
digestCap(u64 h, const Capability &c)
{
    h = digestStep(h, c.tag() ? 1 : 0);
    h = digestStep(h, c.base());
    h = digestStep(h, static_cast<u64>(c.top()));
    h = digestStep(h, static_cast<u64>(c.top() >> 64));
    h = digestStep(h, c.address());
    h = digestStep(h, c.perms());
    return digestStep(h, static_cast<u64>(c.otype()));
}

} // namespace

u64
hashRegs(const ThreadRegs &r)
{
    u64 h = digestCap(digestSeed, r.pcc);
    h = digestCap(h, r.ddc);
    for (const Capability &c : r.c)
        h = digestCap(h, c);
    return digestWords(r.x.data(), r.x.size(), h);
}

u64
hashStats(Kernel &kern)
{
    u64 h = digestSeed;
    h = digestStep(h, kern.physMem().totalAllocated());
    h = digestStep(h, kern.physMem().failedAllocs());
    h = digestStep(h, kern.physMem().reclaimRequests());
    auto block = [&](const auto &b) {
        forEachField(b, [&](const auto &, u64 v) { h = digestStep(h, v); });
    };
    forEachBlock(block, kern.counters());
    return h;
}

} // namespace cheri::check
