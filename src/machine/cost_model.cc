#include "machine/cost_model.h"

#include <algorithm>

namespace cheri
{

CostModel::CostModel(Abi abi, MachineFeatures features,
                     compress::CapFormat fmt)
    : _abi(abi), _features(features), _format(fmt)
{
}

void
CostModel::fetchLines(u64 n)
{
    // The closed form of fetching one instruction at a time: the first
    // instruction of a line fetches it, then the run steps to the end
    // of the line (or of n) at once.  codeFootprint is whole lines, so
    // the wrap back to codeBase falls on a line end.  Each miss loads
    // a footprint line for good; after the last one the rest of the
    // run is warm.
    while (n) {
        u64 off = pc % cacheLineBytes;
        if (off == 0) {
            HitLevel lvl = cacheHier.access(pc, insnBytes, Access::InstrFetch);
            if (lvl != HitLevel::L1) {
                charge(lvl);
                --l1iColdLines;
            }
        }
        u64 step = std::min(n, (cacheLineBytes - off) / insnBytes);
        n -= step;
        pc += step * insnBytes;
        if (pc >= codeBase + codeFootprint)
            pc = codeBase;
        if (l1iColdLines == 0) {
            fetchWarm(n);
            return;
        }
    }
}

void
CostModel::settleL1I()
{
    if (l1iPending == 0)
        return;
    Cache &c = cacheHier.l1i;
    c.tick += l1iPending;
    c._hits += l1iPending;
    l1iPending = 0;
    u64 last = lastFetchedLine();
    forEachL1ILine([&](Cache::Way &way, u64 line) {
        way.lru = warmStamp(line);
        if (line == last)
            c.probe = static_cast<u64>(&way - &c.slots[0]);
    });
}

void
CostModel::asanCheck(u64 va)
{
    // Shadow = (addr >> 3) + offset: compute, load the shadow byte,
    // compare against the access size, branch to the slow path — and
    // the shadow load pollutes the data caches.  The binary (not its
    // libraries) is instrumented, as in the paper's 3.29x measurement.
    fetchAndCount(18);
    dataAccess((va >> 3) + 0x7fff8000, 1, Access::DataLoad);
}

void
CostModel::gotLoad(u64 got_va)
{
    if (_abi == Abi::CheriAbi && !_features.largeClcImmediate) {
        // lui/daddiu to materialize the GOT offset, then CLC.
        fetchAndCount(2);
    }
    fetchAndCount(1);
    dataAccess(got_va, pointerSize(), Access::DataLoad);
}

void
CostModel::call(u64 sp_va, u64 n_bounded_locals, u64 n_args, bool variadic)
{
    // Frame setup/teardown: adjust sp, spill return address + frame ptr.
    fetchAndCount(4);
    dataAccess(sp_va, 2 * pointerSize(), Access::DataStore);
    if (_abi == Abi::CheriAbi) {
        // One CSetBounds (plus the incoffset feeding it) per
        // address-taken local.
        fetchAndCount(2 * n_bounded_locals);
        if (variadic) {
            // Variadics always spill to the stack, reached via a
            // bounded capability (paper section 5.3, CC class).
            fetchAndCount(2 + n_args);
            dataAccess(sp_va + 32, n_args * pointerSize(),
                       Access::DataStore);
        }
    }
}

void
CostModel::spills(u64 sp_va, u64 mips_spills, u64 cheri_spills)
{
    u64 n = _abi == Abi::CheriAbi ? cheri_spills : mips_spills;
    fetchAndCount(2 * n); // spill + reload
    if (n)
        dataAccess(sp_va, n * 8, Access::DataStore);
}

void
CostModel::syscall(u64 n_ptr_args)
{
    // Trap entry/exit and dispatch.
    fetchAndCount(120);
    if (_abi == Abi::CheriAbi) {
        // Kernel validates each user capability argument (tag/seal
        // checks) before use.
        fetchAndCount(3 * n_ptr_args);
    } else {
        // Legacy path: the kernel must *construct* a capability from
        // each integer pointer argument before any access to user
        // memory (CSetAddr + CSetBounds + CAndPerm + range checks).
        fetchAndCount(12 * n_ptr_args);
    }
}

void
CostModel::copyLoop(u64 src_va, u64 dst_va, u64 len)
{
    u64 words = (len + 7) / 8;
    fetchAndCount(2 * words + 8);
    // Touch each cache line of both streams once.
    for (u64 off = 0; off < len; off += cacheLineBytes) {
        dataAccess(src_va + off, 8, Access::DataLoad);
        dataAccess(dst_va + off, 8, Access::DataStore);
    }
}

void
CostModel::contextSwitch()
{
    // Save and restore the full register file.  CheriABI threads carry
    // 32 capability registers (16 bytes each) plus PCC/DDC state;
    // mips64 threads carry 32 integer registers.
    u64 reg_bytes = 32 * pointerSize();
    // CheriABI also saves/restores PCC, DDC, and the capability cause
    // register, and must use the capability-aware save path.
    fetchAndCount(2 * 32 + 20 + (_abi == Abi::CheriAbi ? 16 : 0));
    dataAccess(0x7f0000000, reg_bytes, Access::DataStore);
    dataAccess(0x7f0000000, reg_bytes, Access::DataLoad);
}

void
CostModel::reset()
{
    _instructions = 0;
    _cycles = 0;
    _codeBytes = 0;
    _itlbAccesses = 0;
    _itlbMisses = 0;
    _dtlbAccesses = 0;
    _dtlbMisses = 0;
    pc = codeBase;
    l1iColdLines = codeLines;
    l1iPending = 0;
    cacheHier.reset();
}

} // namespace cheri
