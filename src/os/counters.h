/**
 * @file
 * The kernel's event counters: one definition, one owner, one field
 * list.
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
 *
 * Each block's fields are listed once, with their metrics-JSON keys,
 * by its counterFields overload.  The sum, the snapshot transfer, the
 * metrics JSON and the replay digest all walk that list, so a new
 * counter is one member plus one list entry; a member missing from
 * the list fails the build.
 */

#ifndef CHERI_OS_COUNTERS_H
#define CHERI_OS_COUNTERS_H

#include <algorithm>
#include <array>
#include <type_traits>

#include "cap/types.h"

namespace cheri
{

/** One entry of a counter block's field list. */
template <class S>
struct CounterField
{
    u64 S::*member;
    /** The field's key in its metrics-JSON section. */
    const char *key;
    /** A high-water mark: blocks combine by max, not by sum. */
    bool highWater = false;
};

/** An all-u64 struct whose field list,
 *  counterFields(std::type_identity<S>), is found by ADL. */
template <class S>
concept CounterBlock = requires { counterFields(std::type_identity<S>{}); };

/** The field list of @p S, checked to name each member exactly once. */
template <class S>
consteval auto
checkedFields()
{
    constexpr auto fields = counterFields(std::type_identity<S>{});
    static_assert(fields.size() == sizeof(S) / sizeof(u64),
                  "a counter is missing from its block's field list");
    for (std::size_t i = 0; i < fields.size(); ++i)
        for (std::size_t j = 0; j < i; ++j)
            if (fields[i].member == fields[j].member)
                throw "a counter is listed twice";
    return fields;
}

template <CounterBlock S> inline constexpr auto fieldsOf = checkedFields<S>();

/** Call @p fn(entry, value) for each field of block @p s, in list order;
 *  @p value refers into @p s. */
template <class S, class Fn>
constexpr void
forEachField(S &s, Fn &&fn)
{
    for (const auto &f : fieldsOf<std::remove_const_t<S>>)
        fn(f, s.*f.member);
}

/** Sums every count; a high-water mark combines by max. */
template <CounterBlock S>
constexpr S &
operator+=(S &s, const S &o)
{
    forEachField(s, [&](const auto &f, u64 &v) {
        v = f.highWater ? std::max(v, o.*f.member) : v + o.*f.member;
    });
    return s;
}

/** Memory-pressure accounting (reclaim passes, OOM kills). */
struct MemPressureStats
{
    u64 reclaimPasses = 0;
    /** Pages swapped out by reclaim passes. */
    u64 pagesReclaimed = 0;
    u64 oomKills = 0;
    /** Syscall-level E_NOMEM failures caused by memory pressure. */
    u64 enomemErrors = 0;
};

constexpr auto
counterFields(std::type_identity<MemPressureStats>)
{
    return std::to_array<CounterField<MemPressureStats>>({
        {&MemPressureStats::reclaimPasses, "reclaim_passes"},
        {&MemPressureStats::pagesReclaimed, "pages_reclaimed"},
        {&MemPressureStats::oomKills, "oom_kills"},
        {&MemPressureStats::enomemErrors, "enomem"},
    });
}

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
};

constexpr auto
counterFields(std::type_identity<FdIoStats>)
{
    return std::to_array<CounterField<FdIoStats>>({
        {&FdIoStats::blocks, "blocks"},
        {&FdIoStats::wakes, "wakes"},
        {&FdIoStats::eagainErrors, "eagain_errors"},
        {&FdIoStats::epipeErrors, "epipe_errors"},
        {&FdIoStats::partialWrites, "partial_writes"},
        {&FdIoStats::selectTimeouts, "select_timeouts"},
    });
}

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
};

constexpr auto
counterFields(std::type_identity<RevocationStats>)
{
    return std::to_array<CounterField<RevocationStats>>({
        {&RevocationStats::epochsOpened, "epochs_opened"},
        {&RevocationStats::epochsClosed, "epochs_closed"},
        {&RevocationStats::epochsAborted, "epochs_aborted"},
        {&RevocationStats::pagesScanned, "pages_scanned"},
        {&RevocationStats::pagesSkippedClean, "pages_skipped_clean"},
        {&RevocationStats::granulesVisited, "granules_visited"},
        {&RevocationStats::tagsRevoked, "tags_revoked"},
        {&RevocationStats::incrementalSlices, "incremental_slices"},
        {&RevocationStats::syncSweeps, "sync_sweeps"},
        {&RevocationStats::cyclesInEpochs, "cycles_in_epochs"},
    });
}

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
};

constexpr auto
counterFields(std::type_identity<HardeningStats>)
{
    return std::to_array<CounterField<HardeningStats>>({
        {&HardeningStats::panics, "panics"},
        {&HardeningStats::deadlocksDetected, "deadlocks_detected"},
        {&HardeningStats::deadlocksKilled, "deadlocks_killed"},
        {&HardeningStats::machineChecks, "machine_checks"},
    });
}

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
};

constexpr auto
counterFields(std::type_identity<SchedStats>)
{
    return std::to_array<CounterField<SchedStats>>({
        {&SchedStats::contextSwitches, "context_switches"},
        {&SchedStats::preemptions, "preemptions"},
        {&SchedStats::slices, "slices"},
        {&SchedStats::blocksWait4, "blocks_wait4"},
        {&SchedStats::blocksEvent, "blocks_event"},
        {&SchedStats::blocksSleep, "blocks_sleep"},
        {&SchedStats::blocksFd, "blocks_fd"},
        {&SchedStats::wakes, "wakes"},
        {&SchedStats::maxRunQueueDepth, "max_run_queue_depth", true},
        {&SchedStats::idleAdvances, "idle_advances"},
        {&SchedStats::stepsExecuted, "steps_executed"},
    });
}

/** Every kernel-owned counter, in one block. */
struct KernelCounters
{
    MemPressureStats pressure;
    FdIoStats fd;
    RevocationStats revocation;
    HardeningStats hardening;
    SchedStats sched;
};

/** Call @p fn with the same block of each of @p ks, block by block in
 *  declaration order: the one list of KernelCounters' blocks. */
template <class Fn, class... K>
constexpr void
forEachBlock(Fn &&fn, K &...ks)
{
    fn(ks.pressure...);
    fn(ks.fd...);
    fn(ks.revocation...);
    fn(ks.hardening...);
    fn(ks.sched...);
}

inline KernelCounters &
operator+=(KernelCounters &k, const KernelCounters &o)
{
    forEachBlock([](auto &a, const auto &b) { a += b; }, k, o);
    return k;
}

} // namespace cheri

#endif // CHERI_OS_COUNTERS_H
