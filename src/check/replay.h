/**
 * @file
 * Record-replay with a replay-divergence oracle.
 *
 * The system is deterministic by construction — seeded mt19937_64 case
 * generation, a virtual clock, instruction-boundary preemption, and an
 * LCG-driven fault injector — so a run is fully described by its
 * *inputs*: the RNG draws the generator consumes and the per-event
 * decisions the fault injector hands out.  A ReplaySession in Record
 * mode logs exactly those two input streams, plus a state digest at
 * every quiescent point (each syscall dispatch); in Replay mode it
 * substitutes the logged inputs back in and checks each digest against
 * the recording.  Any mismatch is a *divergence*: the oracle reports
 * the first one with the field that differed and the syscall (pid +
 * number) at which the timelines split.
 *
 * The log is self-contained: its header carries the FuzzOptions of the
 * recorded run, so `cheri_replay replay --log x.log` needs no other
 * arguments to reproduce it bit-for-bit.
 */

#ifndef CHERI_CHECK_REPLAY_H
#define CHERI_CHECK_REPLAY_H

#include <random>
#include <string>
#include <vector>

#include "check/diff_fuzzer.h"
#include "mem/fault_inject.h"

namespace cheri
{
class Kernel;
class Process;
}

namespace cheri::check
{

/** One replay mismatch, attributed to the quiescent point where the
 *  timelines split. */
struct ReplayDivergence
{
    /** Log entry sequence number (position in the recorded stream). */
    u64 seq = 0;
    /** Which digest field (or input stream) differed. */
    std::string field;
    std::string detail;
    /** The syscall at the divergent quiescent point. */
    u64 pid = 0;
    u64 sysCode = 0;
    std::string sysName;
};

/**
 * One record-or-replay session across an entire fuzzer run.  Install it
 * via FuzzOptions::replay; the fuzzer routes its RNG draws through
 * rngDraw(), installs it as the kernels' FaultTap, and calls quiesce()
 * at every syscall dispatch.
 */
class ReplaySession : public FaultTap
{
  public:
    enum class Mode
    {
        Record,
        Replay,
    };

    /** Bumped whenever what the digest covers changes, even when the
     *  layout does not: another version's log would load and then
     *  diverge at its first digest. */
    static constexpr u32 logVersion = 2;

    explicit ReplaySession(Mode mode) : _mode(mode) {}

    Mode mode() const { return _mode; }
    bool recording() const { return _mode == Mode::Record; }

    /** @name The recorded input streams */
    /// @{
    /** Route one generator draw through the log.  Record: logs @p raw
     *  and passes it through.  Replay: returns the logged draw (the
     *  authoritative input), flagging a divergence if @p raw differs. */
    u64 rngDraw(u64 raw);

    /** FaultTap: the injector's per-event decision.  Record: logged and
     *  passed through.  Replay: the logged decision is substituted. */
    bool onFault(FaultPoint point, bool decision) override;
    /// @}

    /**
     * Quiescent-point digest at a syscall dispatch: hashes @p proc's
     * full register file (capability tags included) and every
     * KernelCounters field, walked through the blocks' field lists
     * (os/counters.h).  Record: appended to the log.  Replay: checked
     * against the recording; the first mismatch becomes the
     * divergence report's attribution point.
     */
    void quiesce(Kernel &kern, Process &proc, u64 code);

    /** Case boundary marker (alignment check on replay). */
    void caseEnd(u64 index);

    /**
     * Close the session.  Record: appends the end marker.  Replay:
     * verifies the whole log was consumed — leftover entries mean the
     * replayed run ended early, itself a divergence.
     */
    void finish();

    /** Negative-test hook: in Replay mode, corrupt the digest computed
     *  at the @p n'th quiescent point (0-based), forcing exactly one
     *  planted divergence the oracle must catch and attribute. */
    void
    plantAtQuiesce(u64 n)
    {
        plantSeq = n;
        plantArmed = true;
    }

    /** @name Log serialization */
    /// @{
    /** Record mode: the finished log (header carries @p opts). */
    std::vector<u8> serialize(const FuzzOptions &opts) const;

    /** Replay mode: load a recorded log; false + @p error on a
     *  truncated/corrupt log.  options() then returns the recorded
     *  run's configuration (with `replay` left null). */
    bool load(const std::vector<u8> &log, std::string *error = nullptr);

    /** The FuzzOptions recorded in a loaded log's header. */
    const FuzzOptions &options() const { return hdrOpts; }
    /// @}

    /** @name Oracle results */
    /// @{
    const std::vector<ReplayDivergence> &divergences() const
    {
        return divs;
    }
    u64 divergenceCount() const { return divCount; }
    u64 entryCount() const { return entries; }
    /** One-line report of the first divergence ("" when clean). */
    std::string firstDivergence() const;
    /// @}

  private:
    struct Entry
    {
        u8 tag = 0;
        /** Rng: the draw.  Fault: the point.  Quiesce: seq.
         *  CaseEnd: the index. */
        u64 a = 0;
        /** Fault: the decision.  Quiesce: pid. */
        u64 b = 0;
        /** Quiesce digest tail. */
        u64 code = 0;
        u64 regHash = 0;
        u64 frames = 0;
        u64 slots = 0;
        u64 statsHash = 0;
    };

    void emit(const Entry &e);
    /** Replay: pop the next logged entry, or null at end-of-log. */
    const Entry *next();
    void diverge(ReplayDivergence d);

    Mode _mode;
    FuzzOptions hdrOpts;
    std::vector<Entry> log;
    u64 cursor = 0;
    u64 entries = 0;
    u64 quiesceSeq = 0;
    std::vector<ReplayDivergence> divs;
    u64 divCount = 0;
    bool finished = false;
    u64 plantSeq = 0;
    bool plantArmed = false;

    static constexpr u64 maxDivergences = 32;
};

/**
 * The fuzzer's generator RNG as a UniformRandomBitGenerator: a seeded
 * mt19937_64 whose every draw is routed through the session (when one
 * is attached), making the generated case stream a recorded input.
 */
class FuzzRng
{
  public:
    using result_type = u64;

    FuzzRng(u64 seed, ReplaySession *session)
        : rng(seed), session(session)
    {
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~u64{0}; }

    result_type
    operator()()
    {
        u64 v = rng();
        return session ? session->rngDraw(v) : v;
    }

  private:
    std::mt19937_64 rng;
    ReplaySession *session;
};

} // namespace cheri::check

#endif // CHERI_CHECK_REPLAY_H
