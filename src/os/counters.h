/**
 * @file
 * The kernel's event counters: one definition, one owner.
 *
 * Every counter the kernel and its scheduler keep lives in one
 * KernelCounters block, owned by the Kernel (through a shared_ptr) and
 * incremented in place by the kernel's reclaim, FD, revocation and
 * hardening paths and by the scheduler.  Nothing else stores a copy:
 * obs::Metrics holds shared references to the blocks of the kernels it
 * was attached to and reads them when it emits the "memory", "fd",
 * "revocation", "sched" and "hardening" sections of its JSON, and the
 * snapshot writer serializes the block with the rest of the kernel.
 * The shared ownership lets a registry outlive a kernel (or the
 * reverse) without a dangling read.
 */

#ifndef CHERI_OS_COUNTERS_H
#define CHERI_OS_COUNTERS_H

#include <algorithm>

#include "cap/types.h"

namespace cheri
{

/** Memory-pressure accounting (reclaim passes, OOM kills). */
struct MemPressureStats
{
    u64 reclaimPasses = 0;
    /** Pages swapped out by reclaim passes. */
    u64 pagesReclaimed = 0;
    u64 oomKills = 0;
    /** Syscall-level E_NOMEM failures caused by memory pressure. */
    u64 enomemErrors = 0;

    MemPressureStats &
    operator+=(const MemPressureStats &o)
    {
        reclaimPasses += o.reclaimPasses;
        pagesReclaimed += o.pagesReclaimed;
        oomKills += o.oomKills;
        enomemErrors += o.enomemErrors;
        return *this;
    }
};

/** Blocking-FD-I/O accounting (pipe/pty/select paths). */
struct FdIoStats
{
    /** Contexts parked by read/write/select would-block. */
    u64 blocks = 0;
    /** Contexts woken by an FD wake edge (data, space, close). */
    u64 wakes = 0;
    /** Would-block reported to the caller (O_NONBLOCK or no
     *  scheduler context to park). */
    u64 eagainErrors = 0;
    /** Writes failed with EPIPE (reader side gone). */
    u64 epipeErrors = 0;
    /** Channel writes that transferred fewer bytes than asked
     *  (caller loops; the next write blocks or E_AGAINs). */
    u64 partialWrites = 0;
    /** Blocked selects woken by their timeout, not readiness. */
    u64 selectTimeouts = 0;

    FdIoStats &
    operator+=(const FdIoStats &o)
    {
        blocks += o.blocks;
        wakes += o.wakes;
        eagainErrors += o.eagainErrors;
        epipeErrors += o.epipeErrors;
        partialWrites += o.partialWrites;
        selectTimeouts += o.selectTimeouts;
        return *this;
    }
};

/** Revocation accounting: the ablation axis is pagesScanned vs
 *  pagesSkippedClean (what cap-dirty tracking saves) and
 *  incrementalSlices (how the work is amortized). */
struct RevocationStats
{
    u64 epochsOpened = 0;
    u64 epochsClosed = 0;
    /** Epochs torn down without closing (exit/execve/OOM kill). */
    u64 epochsAborted = 0;
    u64 pagesScanned = 0;
    /** Content pages an epoch skipped because cap-clean. */
    u64 pagesSkippedClean = 0;
    u64 granulesVisited = 0;
    u64 tagsRevoked = 0;
    u64 incrementalSlices = 0;
    u64 syncSweeps = 0;
    /** Modelled cycles charged inside epochs (open to close). */
    u64 cyclesInEpochs = 0;

    RevocationStats &
    operator+=(const RevocationStats &o)
    {
        epochsOpened += o.epochsOpened;
        epochsClosed += o.epochsClosed;
        epochsAborted += o.epochsAborted;
        pagesScanned += o.pagesScanned;
        pagesSkippedClean += o.pagesSkippedClean;
        granulesVisited += o.granulesVisited;
        tagsRevoked += o.tagsRevoked;
        incrementalSlices += o.incrementalSlices;
        syncSweeps += o.syncSweeps;
        cyclesInEpochs += o.cyclesInEpochs;
        return *this;
    }
};

/** Kernel-hardening accounting: structured panics, deadlock-watchdog
 *  verdicts, machine-check degradations.  Survives the panic path's
 *  transactional reset. */
struct HardeningStats
{
    /** CHERI_KASSERT failures captured by the structured panic path
     *  (snapshot + report + transactional reset, never a host
     *  abort). */
    u64 panics = 0;
    /** Scheduler idle passes whose watchdog scan found a non-empty
     *  stuck set (wait-for cycle or orphaned wait). */
    u64 deadlocksDetected = 0;
    /** Victims killed under DeadlockPolicy::Kill. */
    u64 deadlocksKilled = 0;
    /** Injected memory corruption events detected and degraded to a
     *  guest-visible CapFault::MachineCheck. */
    u64 machineChecks = 0;

    HardeningStats &
    operator+=(const HardeningStats &o)
    {
        panics += o.panics;
        deadlocksDetected += o.deadlocksDetected;
        deadlocksKilled += o.deadlocksKilled;
        machineChecks += o.machineChecks;
        return *this;
    }
};

/** Scheduler accounting (src/os/sched).  Restarts from zero with each
 *  scheduler the kernel installs. */
struct SchedStats
{
    /** Slices that ran a different (pid, tid) than the previous one. */
    u64 contextSwitches = 0;
    /** Slices ended with the context still runnable: time-slice (step
     *  budget) expiry or a directed yield (thr_switch). */
    u64 preemptions = 0;
    /** Total slices dispatched (interpreted and hosted). */
    u64 slices = 0;
    u64 blocksWait4 = 0;
    u64 blocksEvent = 0;
    u64 blocksSleep = 0;
    /** FD blocks: pipe/pty read, write, and select parks. */
    u64 blocksFd = 0;
    /** Blocked contexts returned to the run queue. */
    u64 wakes = 0;
    u64 maxRunQueueDepth = 0;
    /** Idle virtual-clock advances to the earliest sleep deadline. */
    u64 idleAdvances = 0;
    /** Guest instructions retired under the scheduler. */
    u64 stepsExecuted = 0;

    /** Sums every count; a high-water mark combines by max. */
    SchedStats &
    operator+=(const SchedStats &o)
    {
        contextSwitches += o.contextSwitches;
        preemptions += o.preemptions;
        slices += o.slices;
        blocksWait4 += o.blocksWait4;
        blocksEvent += o.blocksEvent;
        blocksSleep += o.blocksSleep;
        blocksFd += o.blocksFd;
        wakes += o.wakes;
        maxRunQueueDepth = std::max(maxRunQueueDepth, o.maxRunQueueDepth);
        idleAdvances += o.idleAdvances;
        stepsExecuted += o.stepsExecuted;
        return *this;
    }
};

/** Every kernel-owned counter, in one block. */
struct KernelCounters
{
    MemPressureStats pressure;
    FdIoStats fd;
    RevocationStats revocation;
    HardeningStats hardening;
    SchedStats sched;

    KernelCounters &
    operator+=(const KernelCounters &o)
    {
        pressure += o.pressure;
        fd += o.fd;
        revocation += o.revocation;
        hardening += o.hardening;
        sched += o.sched;
        return *this;
    }
};

} // namespace cheri

#endif // CHERI_OS_COUNTERS_H
