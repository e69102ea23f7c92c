/**
 * @file
 * Differential ABI fuzzer.
 *
 * CheriABI's compatibility claim (paper §6) is that the pure-capability
 * ABI is a drop-in replacement for the legacy one: the same program,
 * run under mips64 and under CheriABI, produces the same results.  The
 * DiffFuzzer turns that claim into an executable property: a seeded
 * generator (std::mt19937_64 — never wall-clock) emits random guest
 * programs via the Assembler plus random syscall sequences (mmap,
 * munmap, mprotect, sbrk, fork, signal, read, write, shmget/shmat,
 * plus direct page touches and evictions), runs each case twice — once
 * per ABI, in a fresh kernel each — and compares:
 *
 *  - the syscall event stream (number, error flag, ABI-invariant
 *    result value) captured at the dispatch choke point;
 *  - bytes written to the case's output file;
 *  - the final memory image of every tracked region;
 *  - interpreted-program outcomes (registers, halt/fault status);
 *  - the final process table (pids, exit status, death causes).
 *
 * Values that legitimately differ between ABIs are masked rather than
 * compared: raw mapping addresses (layouts may differ; regions are
 * compared by index) and sbrk results (CheriABI excludes sbrk by
 * design — mips64 succeeds where CheriABI returns E_NOSYS).
 *
 * The invariant oracle (invariants.h) is wired into both kernels via
 * Kernel::setCheckHook and runs at every check-every'th syscall
 * boundary; any violation fails the case with a seed-reproducible
 * report.  Optional FaultInjector schedules (--inject) arm all three
 * choke points with case-seed-derived periods, identically in both
 * runs.  Because the two ABIs reach a given op after different numbers
 * of allocations, a periodic schedule fires at different points in each
 * timeline, so injected runs skip the differential comparison and rely
 * on the oracle alone.
 */

#ifndef CHERI_CHECK_DIFF_FUZZER_H
#define CHERI_CHECK_DIFF_FUZZER_H

#include <array>
#include <string>
#include <vector>

#include "check/invariants.h"

namespace cheri::obs
{
class Metrics;
}

namespace cheri::check
{

class ReplaySession;

struct FuzzOptions
{
    u64 seed = 1;
    u64 cases = 100;
    u64 opsPerCase = 32;
    /** Arm the FaultInjector on FrameAlloc/SwapOut/SwapIn with
     *  case-seed-derived periods. */
    bool inject = false;
    /** Run the oracle every Nth syscall (0 = oracle off). */
    u64 checkEvery = 1;
    /** Deliberately corrupt a swap-slot refcount mid-case — the
     *  oracle-detection self-test from the acceptance criteria. */
    bool plantSlotBug = false;
    /** Kernel memory budgets (0 = unlimited), e.g. from
     *  CHERI_TEST_FRAME_BUDGET / CHERI_TEST_SLOT_BUDGET. */
    u64 frameCapacity = 0;
    u64 swapSlotBudget = 0;
    /**
     * Multi-process mode: spawn this many guest processes (clamped to
     * 2..4) per case, each running a generated program — including
     * sleep/thr_new/thr_switch — preemptively time-sliced by the
     * kernel scheduler.  The invariant oracle runs at every slice
     * boundary, and the interleaved syscall event stream is compared
     * across ABIs (slice boundaries land identically because lowering
     * is 1:1 in instruction count).  0 = classic single-process mode.
     */
    u64 multiProc = 0;
    /**
     * Record/replay session (replay.h), nullable.  When set, every
     * generator RNG draw routes through it, it is installed as each
     * case kernel's FaultTap, and a quiescent-point digest is taken at
     * every syscall dispatch — recording the run's inputs, or checking
     * a replayed run against them.
     */
    ReplaySession *replay = nullptr;
    /**
     * When non-empty, a failing case auto-emits reproduction artifacts:
     * a kernel snapshot taken at the first oracle violation (or at case
     * end for pure divergences) as `<prefix>-case<N>.img`, plus — when
     * recording — the replay log as `<prefix>-case<N>.log`.
     */
    std::string artifactPrefix;
    /** Capture each run's full metrics JSON into the CaseReport (the
     *  replay-determinism gate compares them bit-for-bit). */
    bool keepMetricsJson = false;
    /**
     * Lock-step oracle audit: at every check, also run a fresh full walk
     * (Invariants::check's pass, not recorded in the metrics) and report
     * an "oracle-memo-mismatch" violation whenever its Report differs
     * from the memoized one.  Tallies go to the OracleAudit fields.
     */
    bool checkFull = false;
};

/** FuzzOptions::checkFull tallies (all zero without it). */
struct OracleAudit
{
    /** Checks run in lock step, and those whose reports differed. */
    u64 checks = 0;
    u64 mismatches = 0;
    /** Report::pagesRechecked summed over the memoized checks and over
     *  the full walks of the same states. */
    u64 memoPagesRechecked = 0;
    u64 fullPagesRechecked = 0;
    /** 1 + the syscalls dispatched, counted from the start of the run,
     *  when a memoized / full report first held a violation (0: none
     *  did). */
    u64 memoFirstViolation = 0;
    u64 fullFirstViolation = 0;

    /** Fold in the tallies of a later run that started @p offset
     *  syscalls in. */
    void
    add(const OracleAudit &o, u64 offset)
    {
        checks += o.checks;
        mismatches += o.mismatches;
        memoPagesRechecked += o.memoPagesRechecked;
        fullPagesRechecked += o.fullPagesRechecked;
        if (!memoFirstViolation && o.memoFirstViolation)
            memoFirstViolation = offset + o.memoFirstViolation;
        if (!fullFirstViolation && o.fullFirstViolation)
            fullFirstViolation = offset + o.fullFirstViolation;
    }
};

/**
 * One entry of a run's comparable event stream: a kind and its values,
 * compared by value between the two ABI runs.  Text is built only for
 * the entries a divergence report prints (describe()).  Values a kind
 * does not use stay zero.
 */
struct FuzzEvent
{
    enum class Kind : u8
    {
        /** A dispatched syscall: code, error flag, result (0 for a
         *  syscall that returns a pointer). */
        Syscall,
        /** A multi-process mode syscall: pid, code, error flag,
         *  result. */
        ProcSyscall,
        /** sbrk and revoke2 events, masked whole (designed
         *  divergences). */
        SbrkMasked,
        Revoke2Masked,
        /** Signal delivery: handlers run now, handler runs so far. */
        Deliver,
        /** A host byte store: region index (~0 for the scratch
         *  mapping), whether it faulted, the fault. */
        Touch,
        /** Pages swapped out. */
        Evict,
        /** A generated program's end: status, fault, steps, then the
         *  work registers x4..x10 bar x8. */
        Compute,
        ComputeLoadFailed,
        /** A tracked region's final image: region index (~0 for the
         *  scratch mapping), then its digest (Image) or the fault that
         *  stopped the read (ImageFault). */
        Image,
        ImageFault,
        /** A process at case end: pid, exited, exit status, whether it
         *  died of a fault, the fault. */
        Proc,
        /** Handler runs at case end. */
        Handlers,
        /** A multi-process guest at case end: index, status, fault,
         *  thread count, then the work registers as in Compute. */
        Guest,
        /** Scheduler totals: context switches, preemptions, slices,
         *  sleep blocks, fd blocks, wakes. */
        Sched,
        ExecveFailed,
        ScratchMmapFailed,
        MainExited,
        PlantSlotBug,
        /** A refused snapshot: index of its reason in the run's
         *  notes. */
        SnapshotFailed,
    };

    Kind kind = Kind::Syscall;
    std::array<u64, 10> v{};

    bool operator==(const FuzzEvent &) const = default;
};

/** @p e as a divergence report prints it; @p notes holds the reasons
 *  SnapshotFailed events index. */
std::string describe(const FuzzEvent &e,
                     const std::vector<std::string> &notes = {});

/** Outcome of one differential case. */
struct CaseReport
{
    u64 index = 0;
    u64 caseSeed = 0;
    /** Human-readable mismatches between the two ABI runs. */
    std::vector<std::string> divergences;
    /** Oracle violations from either run. */
    std::vector<Violation> violations;
    u64 syscalls = 0;
    u64 oracleRuns = 0;
    OracleAudit audit;
    /** Both runs' metrics JSON (mips64 then cheriabi), when
     *  FuzzOptions::keepMetricsJson is set. */
    std::string metricsJson;
    /** Structured panic report from whichever run tripped a kernel
     *  assertion (empty otherwise); written as the case's .panic.json
     *  artifact. */
    std::string panicJson;

    bool diverged() const { return !divergences.empty(); }
    bool failed() const { return diverged() || !violations.empty(); }
};

/** Aggregate outcome of a fuzzing run. */
struct FuzzReport
{
    u64 seed = 0;
    u64 opsPerCase = 0;
    u64 casesRun = 0;
    u64 syscalls = 0;
    u64 oracleRuns = 0;
    u64 divergentCases = 0;
    u64 violationCount = 0;
    OracleAudit audit;
    /** Failing cases, capped at maxFailures (counters keep counting). */
    std::vector<CaseReport> failures;
    static constexpr u64 maxFailures = 16;

    bool ok() const { return divergentCases == 0 && violationCount == 0; }
    /** Human-readable summary with a reproduction command per failing
     *  case. */
    std::string summary() const;
    std::string toJson() const;
};

class DiffFuzzer
{
  public:
    explicit DiffFuzzer(FuzzOptions opts) : opts(opts) {}

    /** Aggregate fuzzer telemetry here (nullable). */
    void setMetrics(obs::Metrics *m) { mx = m; }

    /** Run all cases. */
    FuzzReport run();

    /** Run case @p index alone (seed-addressable reproduction). */
    CaseReport runCase(u64 index);

  private:
    FuzzOptions opts;
    obs::Metrics *mx = nullptr;
};

} // namespace cheri::check

#endif // CHERI_CHECK_DIFF_FUZZER_H
