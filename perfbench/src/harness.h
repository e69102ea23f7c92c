/**
 * @file
 * The benchmark harness: workload interface, span tracer, and the
 * statistics helpers main.cc reports with.
 *
 * A workload is a seeded set of itemsPerPass *items*, made of whole
 * rounds of a fixed composition (the same kinds of work in the same
 * proportions every round; only seed-drawn inputs differ), so the work
 * behind a run does not depend on which seed was drawn.  The item at
 * index k is a pure function of (seed, k): running it again must give
 * bit-identical simulated counts, which main.cc checks on every
 * repeat.  A run repeats the whole set in passes, so every item is
 * timed many times, spread over the measuring window.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench
{

using u64 = std::uint64_t;

inline u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** SplitMix64 finalizer: derives independent per-item seeds. */
inline u64
mix(u64 x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

inline u64
mix(u64 a, u64 b)
{
    return mix(a ^ mix(b));
}

/**
 * In-memory span recorder.  Disabled, a Span costs one branch; enabled,
 * it appends (name, start, end, parent, item, pass) and nothing else
 * until the run ends.
 */
class Tracer
{
  public:
    struct Record
    {
        const char *name;
        u64 start;
        u64 end;
        int parent;
        u64 item;
        u64 pass;
    };

    bool enabled = false;
    u64 item = 0;
    u64 pass = 0;

    int
    begin(const char *name)
    {
        spans.push_back({name, nowNs(), 0, open, item, pass});
        open = static_cast<int>(spans.size()) - 1;
        return open;
    }

    void
    end(int idx)
    {
        spans[idx].end = nowNs();
        open = spans[idx].parent;
    }

    /** Per-name figures of one pass: inclusive time, self time, and
     *  span count. */
    struct Total
    {
        double ns = 0;
        double selfNs = 0;
        double count = 0;
    };

    /**
     * Per-name totals of a typical pass: for each item, the fastest()
     * of its per-pass span times, summed over the items.  Like the
     * end-to-end figures, they see the host at its quietest.
     */
    std::map<std::string, Total> passTotals() const;

    /** Write every span as Chrome trace-event JSON. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::vector<Record> spans;
    int open = -1;
};

/** The process-wide tracer the workloads record into. */
Tracer &tracer();

/** RAII span around a call into one layer. */
class Span
{
  public:
    explicit Span(const char *name)
        : idx(tracer().enabled ? tracer().begin(name) : -1)
    {
    }
    ~Span()
    {
        if (idx >= 0)
            tracer().end(idx);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    int idx;
};

/**
 * Exact simulated counts of one item, keyed by name.  Every entry must
 * repeat bit-for-bit whenever the same item runs again.
 */
using Counts = std::map<std::string, u64>;

/** What verification of one item found (computed outside the timing). */
struct Outcome
{
    /** Empty when every output check passed. */
    std::string failure;
    Counts counts;
};

/** Whatever a workload keeps alive from run() to check(). */
struct ItemState
{
    virtual ~ItemState() = default;
};

/** Deliberately planted failures for the benchmark's own tests. */
enum class Plant
{
    None,
    Checksum, ///< isa: the expected checksum is off by one
    Replay,   ///< fuzz: ReplaySession::plantAtQuiesce on the replay
    Slot,     ///< fuzz: FuzzOptions::plantSlotBug
};

/** Items in a workload's set: whole rounds of every workload, and
 *  enough that the 90th percentile has 12 items beyond it. */
constexpr u64 itemsPerPass = 128;

/** Metric values keyed by name (main.cc attaches the units). */
using Values = std::map<std::string, double>;

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the seeded plan (part of the timed set-up). */
    virtual void plan(u64 seed, Plant plant) = 0;

    /** Items per round (a divisor of itemsPerPass).  Each set-up warms
     *  up with round 0. */
    virtual u64 roundSize() const = 0;

    /** Draw item @p k's inputs from the seed (untimed). */
    virtual std::unique_ptr<ItemState> prepare(u64 k) = 0;

    /** Run the prepared item (timed). */
    virtual void run(ItemState &state) = 0;

    /** Verify the item's outputs and collect its counts (untimed).
     *  Destroying the state afterwards is timed again: tearing down
     *  the item's kernels is part of its cost. */
    virtual Outcome check(ItemState &state) = 0;

    /**
     * Derive per-layer metrics.  @p ref holds the outcomes of the
     * itemsPerPass items (exact: identical in every run of the seed),
     * and @p spans the span totals of a typical traced pass.
     */
    virtual void derive(const std::vector<Outcome> &ref,
                        const std::map<std::string, Tracer::Total> &spans,
                        Values &out) const = 0;

    /** Per-layer set-up figures (e.g. assembly time); main.cc reports
     *  their median over the set-up repetitions. */
    virtual Values setupValues() const { return {}; }
};

std::unique_ptr<Workload> makePaper();
std::unique_ptr<Workload> makeIsa();
std::unique_ptr<Workload> makeFuzz();

/**
 * The time of a piece of work repeated on a noisy host: the mean of
 * its three fastest repetitions (of all, when fewer ran).  Neighbours
 * on a shared machine only ever slow the work down, by tens of percent
 * for seconds at a time; the fastest repetitions, spread over the
 * window, are the ones they disturbed least.
 */
double fastest(std::vector<double> v);

/** Linear-interpolated quantile of @p v (0 <= q <= 1); sorts @p v. */
double quantile(std::vector<double> &v, double q);

double median(std::vector<double> v);

/** Mean span duration in ms (0 when the span never ran). */
double meanMs(const std::map<std::string, Tracer::Total> &spans,
              const char *name);

/** Span time of a pass in ns (0 when the span never ran). */
double totalNs(const std::map<std::string, Tracer::Total> &spans,
               const char *name);

/** @p num / @p den, or 0 when @p den is 0. */
double ratio(double num, double den);

/** Sum one key over a set of outcomes. */
u64 sumCount(const std::vector<Outcome> &v, const std::string &key);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
