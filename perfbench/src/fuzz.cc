/**
 * @file
 * Workload `fuzz`: the differential correctness gate, as items.
 *
 * Each item is one differential case run through
 * check::DiffFuzzer::runCase with the invariant oracle at every syscall
 * (both ABIs, a fresh kernel each).  A ReplaySession records it; the
 * log is serialized, loaded into a second session, and the case is
 * replayed from it.  One round mixes single-process, multi-process
 * (2-4 guests) and fault-injection cases, two of them under frame and
 * swap-slot budgets tight enough to make the kernel reclaim.
 */

#include <cstdlib>
#include <iterator>

#include "check/diff_fuzzer.h"
#include "check/replay.h"
#include "harness.h"

namespace perfbench
{

namespace
{

using namespace cheri;
using check::ReplaySession;

struct CaseKind
{
    u64 multiProc;
    bool inject;
    bool budget;
};

/** One round: the fixed mix every seed runs. */
constexpr CaseKind roundKinds[] = {
    {0, false, false}, {0, false, false}, {0, false, true},
    {2, false, false}, {3, false, false}, {4, false, true},
    {0, true, false},  {3, true, false},
};
constexpr u64 itemsPerRound = std::size(roundKinds);

/** Frame/slot budgets.  The constrained test runs use 48 frames, which
 *  a 32-op case never reaches; 16 makes the reclaim path run. */
constexpr u64 frameBudget = 16;
constexpr u64 slotBudget = 128;

struct FuzzState : ItemState
{
    check::FuzzOptions opts;
    check::CaseReport recorded, replayed;
    u64 recordedEntries = 0;
    u64 replayedEntries = 0;
    u64 replayDivergences = 0;
    std::string firstDivergence;
    std::string failure;
};

/** Sum every numeric value stored under @p key in @p json. */
u64
sumJsonKey(const std::string &json, const char *key)
{
    std::string pat = std::string("\"") + key + "\":";
    u64 sum = 0;
    for (size_t at = json.find(pat); at != std::string::npos;
         at = json.find(pat, at + pat.size()))
        sum += std::strtoull(json.c_str() + at + pat.size(), nullptr, 10);
    return sum;
}

class Fuzz final : public Workload
{
  public:
    void
    plan(u64 s, Plant p) override
    {
        seed = s;
        plant = p;
    }

    u64 roundSize() const override { return itemsPerRound; }

    std::unique_ptr<ItemState>
    prepare(u64 k) override
    {
        auto st = std::make_unique<FuzzState>();
        const CaseKind &kind = roundKinds[k % itemsPerRound];
        check::FuzzOptions &o = st->opts;
        o.seed = mix(seed, k);
        o.cases = 1;
        o.opsPerCase = 32;
        o.checkEvery = 1;
        o.multiProc = kind.multiProc;
        o.inject = kind.inject;
        o.frameCapacity = kind.budget ? frameBudget : 0;
        o.swapSlotBudget = kind.budget ? slotBudget : 0;
        o.plantSlotBug = plant == Plant::Slot;
        o.keepMetricsJson = true;
        return st;
    }

    void
    run(ItemState &base) override
    {
        auto &st = static_cast<FuzzState &>(base);
        std::vector<u8> log;
        {
            Span span(st.opts.inject ? "check.inject_record"
                                     : "check.record");
            ReplaySession rec(ReplaySession::Mode::Record);
            check::FuzzOptions o = st.opts;
            o.replay = &rec;
            st.recorded = check::DiffFuzzer(o).runCase(0);
            rec.finish();
            st.recordedEntries = rec.entryCount();
            log = rec.serialize(st.opts);
        }
        Span span("check.replay");
        ReplaySession rep(ReplaySession::Mode::Replay);
        std::string err;
        if (!rep.load(log, &err)) {
            st.failure = "replay log rejected: " + err;
            return;
        }
        if (plant == Plant::Replay)
            rep.plantAtQuiesce(0);
        check::FuzzOptions o = rep.options();
        o.replay = &rep;
        o.keepMetricsJson = true;
        st.replayed = check::DiffFuzzer(o).runCase(0);
        rep.finish();
        st.replayedEntries = rep.entryCount();
        st.replayDivergences = rep.divergenceCount();
        st.firstDivergence = rep.firstDivergence();
    }

    Outcome
    check(ItemState &base) override
    {
        auto &st = static_cast<FuzzState &>(base);
        Outcome o;
        const check::CaseReport &a = st.recorded, &b = st.replayed;
        if (!st.failure.empty())
            o.failure = st.failure;
        else if (a.diverged() || b.diverged())
            o.failure = "ABI divergence: " +
                        (a.diverged() ? a.divergences : b.divergences)[0];
        else if (!a.violations.empty() || !b.violations.empty())
            o.failure = "oracle violation: " +
                        (a.violations.empty() ? b.violations : a.violations)[0]
                            .rule;
        else if (st.replayDivergences)
            o.failure = "replay divergence: " + st.firstDivergence;
        else if (st.replayedEntries != st.recordedEntries)
            o.failure = "replay log not fully consumed";
        else if (a.metricsJson != b.metricsJson)
            o.failure = "replayed metrics differ from the recording";

        o.counts["syscalls"] = a.syscalls + b.syscalls;
        o.counts["record_syscalls"] = a.syscalls;
        o.counts["oracle_runs"] = a.oracleRuns + b.oracleRuns;
        o.counts["replay_entries"] = st.recordedEntries;
        o.counts["reclaim_passes"] = sumJsonKey(a.metricsJson,
                                                "reclaim_passes");
        // Simulated instructions: guest steps retired by the
        // interpreted case programs, in both the recording and the
        // replay (both ABIs each).
        o.counts["sim_insn"] = sumJsonKey(a.metricsJson, "steps_executed") +
                               sumJsonKey(b.metricsJson, "steps_executed");
        return o;
    }

    void
    derive(const std::vector<Outcome> &ref,
           const std::map<std::string, Tracer::Total> &spans,
           Values &out) const override
    {
        out["os.syscalls"] = sumCount(ref, "syscalls");
        out["check.oracle_runs"] = sumCount(ref, "oracle_runs");
        out["check.replay_entries"] = sumCount(ref, "replay_entries");
        out["mem.reclaim_passes"] = sumCount(ref, "reclaim_passes");
        out["check.record_ms"] = meanMs(spans, "check.record");
        out["check.inject_record_ms"] = meanMs(spans, "check.inject_record");
        out["check.replay_ms"] = meanMs(spans, "check.replay");
        out["check.ns_per_syscall"] =
            ratio(totalNs(spans, "check.record") +
                      totalNs(spans, "check.inject_record"),
                  sumCount(ref, "record_syscalls"));
    }

  private:
    u64 seed = 0;
    Plant plant = Plant::None;
};

} // namespace

std::unique_ptr<Workload>
makeFuzz()
{
    return std::make_unique<Fuzz>();
}

} // namespace perfbench
