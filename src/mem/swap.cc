#include "mem/swap.h"

#include "mem/mem_events.h"

namespace cheri
{

u64
SwapDevice::swapOut(const Frame &frame)
{
    if (injector && injector->shouldFail(FaultPoint::SwapOut)) {
        ++swapOutFailures;
        return invalidSlot;
    }
    if (budget != 0 && slots.size() >= budget) {
        ++swapOutFailures;
        return invalidSlot;
    }
    Slot slot;
    slot.bytes = frame.bytes();
    if (_policy == SwapPolicy::PreserveTags) {
        frame.forEachTagged([&](u64 off, const Capability &cap) {
            slot.tagMeta.emplace_back(off, cap.withoutTag());
            ++tagsPreserved;
        });
    }
    u64 id = nextSlot++;
    slots.emplace(id, std::move(slot));
    ++swapOuts;
    return id;
}

bool
SwapDevice::swapIn(u64 slot_id, Frame &frame, const Capability &root,
                   CapFault *fault)
{
    if (fault)
        *fault = CapFault::SwapInFailure;
    auto it = slots.find(slot_id);
    if (it == slots.end()) {
        // A missing slot is a device-level failure the guest can see,
        // never a host abort.
        ++swapInFailures;
        return false;
    }
    if (injector && injector->shouldFail(FaultPoint::SwapIn)) {
        // Modeled I/O error: the slot survives so the fault can be
        // retried once the condition clears.
        ++swapInFailures;
        return false;
    }
    if (!it->second.tagMeta.empty() && injector &&
        injector->shouldFail(FaultPoint::TagBitFlip)) {
        // Corrupted tag metadata detected while reading it back: drop
        // the hit entry (the tag is gone, the pattern must never be
        // rederived into a live capability) and machine-check the
        // access.  The frame and the slot's references are untouched,
        // so the retried fault completes with that granule untagged.
        it->second.tagMeta.erase(it->second.tagMeta.begin());
        if (memEvents)
            memEvents->machineCheck(FaultPoint::TagBitFlip, slot_id);
        if (fault)
            *fault = CapFault::MachineCheck;
        ++swapInFailures;
        return false;
    }
    const Slot &slot = it->second;
    frame.write(0, slot.bytes.data(), pageSize);
    for (const auto &[off, pattern] : slot.tagMeta) {
        Result<Capability> r = Capability::build(root, pattern);
        if (r.ok())
            frame.writeCap(off, r.value());
        // else: the pattern exceeded the root's authority; leave the
        // granule untagged rather than escalate.
    }
    // A fork sibling may still reference the slot; it dies with the
    // last reference, exactly like a COW frame.
    if (--it->second.refs == 0)
        slots.erase(it);
    return true;
}

void
SwapDevice::discard(u64 slot_id)
{
    auto it = slots.find(slot_id);
    if (it == slots.end())
        return;
    if (--it->second.refs == 0) {
        slots.erase(it);
        ++discards;
    }
}

void
SwapDevice::retain(u64 slot_id)
{
    auto it = slots.find(slot_id);
    if (it != slots.end())
        ++it->second.refs;
}

bool
SwapDevice::sweepSlot(u64 slot_id,
                      const std::function<bool(const Capability &)> &pred,
                      u64 *revoked, u64 *remaining)
{
    if (injector && injector->shouldFail(FaultPoint::SweepScan)) {
        // Modeled I/O error reading the metadata back: the slot is
        // untouched, the sweep scheduler retries the page later.
        ++sweepScanFailures;
        return false;
    }
    auto it = slots.find(slot_id);
    if (it == slots.end()) {
        if (revoked)
            *revoked = 0;
        if (remaining)
            *remaining = 0;
        return true;
    }
    auto &meta = it->second.tagMeta;
    u64 before = meta.size();
    std::erase_if(meta, [&](const std::pair<u64, Capability> &e) {
        return pred(e.second);
    });
    if (revoked)
        *revoked = before - meta.size();
    if (remaining)
        *remaining = meta.size();
    return true;
}

} // namespace cheri
