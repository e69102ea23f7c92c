/**
 * @file
 * The observability registry.
 *
 * One `Metrics` object collects everything the paper's evaluation
 * measures at the kernel/ISA boundary:
 *
 *  - per-syscall call/error counters and simulated-cycle histograms,
 *    keyed by syscall number *and* ABI (the Figure 3/4 axis: overhead
 *    scales with pointer-argument count, and differs per ABI);
 *  - capability-fault telemetry: cause, faulting PC and address, the
 *    syscall in flight, and — when the offending capability was seen
 *    being minted — its `DeriveSource` provenance (the Figure 5
 *    legend), learned by doubling as a `TraceSink`;
 *  - an instruction-mix profiler fed by the interpreter (per-ABI
 *    opcode counts, exposing e.g. the capability-manipulation delta);
 *  - cost-model/cache snapshots from `machine/` (instructions, cycles,
 *    miss counts) labelled by workload;
 *  - a read-only view of the kernel counters (memory pressure, FD I/O,
 *    revocation, scheduler, hardening): the kernel owns them, and the
 *    registry sums the blocks of the kernels attached to it when it
 *    emits.
 *
 * Consumers hold a nullable `Metrics *`; everything costs one branch
 * when disabled.  `toJson()`/`toCsv()` give benches and examples a
 * structured emitter to replace ad-hoc printf tables.
 */

#ifndef CHERI_OBS_METRICS_H
#define CHERI_OBS_METRICS_H

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cap/capability.h"
#include "cap/fault.h"
#include "machine/cost_model.h"
#include "mem/access.h"
#include "os/counters.h"
#include "os/sysnum.h"
#include "trace/trace.h"

namespace cheri::snap
{
struct Access;
}

namespace cheri::obs
{

/** Human-readable ABI name for metric keys and reports. */
constexpr std::string_view
abiName(Abi abi)
{
    switch (abi) {
      case Abi::Mips64: return "mips64";
      case Abi::CheriAbi: return "cheriabi";
      case Abi::Hybrid: return "hybrid";
    }
    return "?";
}

/** Power-of-two bucketed histogram (bucket i covers [2^(i-1), 2^i)). */
struct Histogram
{
    static constexpr unsigned numBuckets = 32;

    std::array<u64, numBuckets> buckets{};
    u64 count = 0;
    u64 sum = 0;
    u64 min = ~u64{0};
    u64 max = 0;

    void record(u64 v);

    /** Bucket index holding value @p v. */
    static unsigned bucketOf(u64 v);

    /** Inclusive lower edge of bucket @p i. */
    static u64 bucketLo(unsigned i);

    double
    mean() const
    {
        return count ? static_cast<double>(sum) /
                           static_cast<double>(count)
                     : 0.0;
    }
};

/** Per-(syscall, ABI) accumulation. */
struct SyscallStats
{
    u64 calls = 0;
    u64 errors = 0;
    Histogram cycles;
};

/** One recorded capability fault. */
struct FaultRecord
{
    CapFault cause = CapFault::None;
    u64 pc = 0;
    u64 addr = 0;
    Abi abi = Abi::Mips64;
    /** Syscall in flight when the fault hit (0 = none). */
    u16 sysnum = 0;
    /** Provenance of the offending capability, when known. */
    DeriveSource provenance = DeriveSource::Temp;
    bool provenanceKnown = false;
};

/** Snapshot/replay telemetry (src/os/snapshot + src/check/replay):
 *  checkpoint traffic and replay-oracle outcomes, exported in the
 *  "snapshot" section of the v8 schema. */
struct SnapshotCounters
{
    u64 snapshotsTaken = 0;    ///< successful snap::save calls
    u64 snapshotBytes = 0;     ///< bytes across all images written
    u64 restores = 0;          ///< successful snap::restore calls
    u64 restoreFailures = 0;   ///< rejected images (corrupt/truncated)
    u64 records = 0;           ///< record-mode replay sessions finished
    u64 replays = 0;           ///< replay-mode sessions finished
    u64 replayDivergences = 0; ///< ReplayOracle divergences reported
    u64 logEntries = 0;        ///< replay-log entries written or read
};

constexpr auto
counterFields(std::type_identity<SnapshotCounters>)
{
    return std::to_array<CounterField<SnapshotCounters>>({
        {&SnapshotCounters::snapshotsTaken, "snapshots_taken"},
        {&SnapshotCounters::snapshotBytes, "snapshot_bytes"},
        {&SnapshotCounters::restores, "restores"},
        {&SnapshotCounters::restoreFailures, "restore_failures"},
        {&SnapshotCounters::records, "records"},
        {&SnapshotCounters::replays, "replays"},
        {&SnapshotCounters::replayDivergences, "replay_divergences"},
        {&SnapshotCounters::logEntries, "log_entries"},
    });
}

/** Checking-layer telemetry (src/check): oracle runs and fuzzer
 *  progress, exported in the "check" section of the v4 schema. */
struct CheckCounters
{
    u64 oracleRuns = 0;       ///< Invariants::check invocations
    u64 oracleViolations = 0; ///< violations across all runs
    u64 fuzzCases = 0;        ///< differential cases executed
    u64 fuzzDivergences = 0;  ///< cases whose ABI runs diverged
};

constexpr auto
counterFields(std::type_identity<CheckCounters>)
{
    return std::to_array<CounterField<CheckCounters>>({
        {&CheckCounters::oracleRuns, "oracle_runs"},
        {&CheckCounters::oracleViolations, "oracle_violations"},
        {&CheckCounters::fuzzCases, "fuzz_cases"},
        {&CheckCounters::fuzzDivergences, "fuzz_divergences"},
    });
}

/** Labelled snapshot of a process's cost model and cache counters. */
struct CostSnapshot
{
    std::string label;
    Abi abi = Abi::Mips64;
    u64 instructions = 0;
    u64 cycles = 0;
    u64 l1dMisses = 0;
    u64 l2Misses = 0;
    u64 codeBytes = 0;
    u64 itlbMisses = 0;
    u64 dtlbMisses = 0;
};

/** One u64 field of a CostSnapshot: its member and JSON key, and the
 *  CostModel reading that captureCost copies into it. */
struct CostField
{
    u64 CostSnapshot::*member;
    const char *key;
    u64 (CostModel::*read)() const;
};

/** The u64 fields of a CostSnapshot, in declaration order. */
inline constexpr CostField costFields[] = {
    {&CostSnapshot::instructions, "instructions", &CostModel::instructions},
    {&CostSnapshot::cycles, "cycles", &CostModel::cycles},
    {&CostSnapshot::l1dMisses, "l1d_misses", &CostModel::l1dMisses},
    {&CostSnapshot::l2Misses, "l2_misses", &CostModel::l2Misses},
    {&CostSnapshot::codeBytes, "code_bytes", &CostModel::codeBytes},
    {&CostSnapshot::itlbMisses, "itlb_misses", &CostModel::itlbMisses},
    {&CostSnapshot::dtlbMisses, "dtlb_misses", &CostModel::dtlbMisses},
};

class Metrics : public TraceSink
{
  public:
    /** Upper bound on distinct opcodes tracked by the mix profiler. */
    static constexpr unsigned maxOps = 64;

    /** @name Syscall layer (fed by Kernel::dispatch) */
    /// @{
    void recordSyscall(u64 num, Abi abi, u64 cycles, bool failed);

    /** Mark/clear the syscall currently executing, so faults raised
     *  while the kernel runs on the user's behalf are attributed. */
    void setCurrentSyscall(u64 num) { currentSys = num; }
    void clearCurrentSyscall() { currentSys = 0; }

    const SyscallStats &syscall(u64 num, Abi abi) const;
    /// @}

    /** @name Capability-fault telemetry */
    /// @{
    /** Record a fault; @p via (nullable) is the offending capability,
     *  matched against derivation history for provenance. */
    void recordFault(CapFault cause, u64 pc, u64 addr,
                     const Capability *via, Abi abi);

    const std::vector<FaultRecord> &faults() const { return _faults; }
    u64 faultCount(CapFault cause) const;
    /// @}

    /** @name Instruction-mix profiler (fed by Interpreter::run) */
    /// @{
    void
    countInsn(unsigned op, Abi abi)
    {
        if (op < maxOps)
            ++insnMix[abiIndex(abi)][op];
    }

    u64
    insnCount(unsigned op, Abi abi) const
    {
        return op < maxOps ? insnMix[abiIndex(abi)][op] : 0;
    }

    /** Resolver from opcode index to mnemonic, for the emitters
     *  (installed by the interpreter; obs does not link the ISA). */
    using OpNamer = std::string_view (*)(unsigned);
    void setOpNamer(OpNamer fn) { opNamer = fn; }
    /// @}

    /** @name Software-TLB counters (fed by MemAccess)
     * Each ABI gets one raw counter block indexed by TlbCounter; the
     * kernel hands the block pointer to every process's MemAccess so
     * the hot path increments directly, with no virtual call.
     */
    /// @{
    u64 *tlbCounterBlock(Abi abi) { return tlb[abiIndex(abi)].data(); }
    u64
    tlbCounter(Abi abi, TlbCounter c) const
    {
        return tlb[abiIndex(abi)][c];
    }
    /// @}

    /** @name Kernel counters (pulled, never copied)
     * The kernel and its scheduler own their counters (os/counters.h);
     * Kernel::setMetrics attaches the kernel's block here, and the
     * "memory", "revocation", "sched", "fd" and "hardening" sections
     * are read from the attached blocks when the registry emits.  One
     * registry attached to several kernels reports their sum.
     */
    /// @{
    /** Read @p counters at emit time (a block attached twice counts
     *  once). */
    void attach(std::shared_ptr<const KernelCounters> counters);
    /** Sum of every attached block (max for maxRunQueueDepth). */
    KernelCounters kernelCounters() const;
    /// @}

    /** @name Per-thread steps (fed by src/os/sched) */
    /// @{
    /** Accumulate retired steps against (pid, tid). */
    void recordThreadSteps(u64 pid, u64 tid, u64 steps)
    {
        if (steps)
            _threadSteps[{pid, tid}] += steps;
    }
    const std::map<std::pair<u64, u64>, u64> &threadSteps() const
    {
        return _threadSteps;
    }
    /// @}

    /** @name Checking-layer telemetry (fed by src/check) */
    /// @{
    void
    recordOracleRun(u64 violations)
    {
        ++chk.oracleRuns;
        chk.oracleViolations += violations;
    }
    void
    recordFuzzCase(bool diverged)
    {
        ++chk.fuzzCases;
        if (diverged)
            ++chk.fuzzDivergences;
    }
    const CheckCounters &check() const { return chk; }
    /// @}

    /** @name Snapshot/replay telemetry (fed by snap::save/restore and
     *  check::ReplaySession) */
    /// @{
    void
    recordSnapshot(u64 bytes)
    {
        ++snp.snapshotsTaken;
        snp.snapshotBytes += bytes;
    }
    void
    recordRestore(bool ok)
    {
        if (ok)
            ++snp.restores;
        else
            ++snp.restoreFailures;
    }
    void
    recordReplaySession(bool replayed, u64 entries, u64 divergences)
    {
        if (replayed)
            ++snp.replays;
        else
            ++snp.records;
        snp.logEntries += entries;
        snp.replayDivergences += divergences;
    }
    const SnapshotCounters &snapshot() const { return snp; }
    /// @}

    /** @name Cost-model export */
    /// @{
    void captureCost(std::string label, const CostModel &cost);
    const std::vector<CostSnapshot> &costSnapshots() const
    {
        return costs;
    }
    /// @}

    /** @name TraceSink: provenance learning
     * Install a Metrics as the kernel's (and interpreter's) trace sink
     * and it remembers where each capability was minted and counts
     * derive events per source.
     */
    /// @{
    void derive(DeriveSource source, const Capability &cap) override;
    u64 deriveCount(DeriveSource s) const
    {
        return deriveCounts[static_cast<unsigned>(s)];
    }
    /// @}

    /** @name Emitters */
    /// @{
    /** Full registry as one JSON document (schema in DESIGN.md). */
    std::string toJson() const;
    /** Per-syscall stats as CSV rows. */
    std::string toCsv() const;
    /// @}

    /** Zero everything the registry owns and detach every kernel
     *  block; a kernel that keeps reporting here re-attaches itself
     *  (Kernel::setMetrics). */
    void reset();

  private:
    /** Checkpoint/restore serializes the registry-owned state; the
     *  kernel counters travel with the kernel. */
    friend struct snap::Access;

    static unsigned
    abiIndex(Abi abi)
    {
        return static_cast<unsigned>(abi);
    }

    static constexpr unsigned numAbis = 3;
    /** Faults kept verbatim; beyond this only counters grow. */
    static constexpr u64 maxFaultRecords = 4096;

    std::array<std::array<SyscallStats, numSysNums>, numAbis> sys{};
    std::array<std::array<u64, maxOps>, numAbis> insnMix{};
    std::array<std::array<u64, numTlbCounters>, numAbis> tlb{};
    std::vector<FaultRecord> _faults;
    u64 faultsDropped = 0;
    std::array<u64, numCapFaults> faultsByCause{};
    /** Counter blocks of the attached kernels. */
    std::vector<std::shared_ptr<const KernelCounters>> kernels;
    /** Retired guest instructions per (pid, tid) under the scheduler. */
    std::map<std::pair<u64, u64>, u64> _threadSteps;
    CheckCounters chk;
    SnapshotCounters snp;
    std::vector<CostSnapshot> costs;
    std::array<u64, numDeriveSources> deriveCounts{};
    /** (base, length) of tagged capabilities seen at derive sites. */
    std::map<std::pair<u64, u64>, DeriveSource> provenance;
    OpNamer opNamer = nullptr;
    u64 currentSys = 0;
};

} // namespace cheri::obs

#endif // CHERI_OBS_METRICS_H
