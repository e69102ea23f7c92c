/**
 * @file
 * Structured kernel panic and the flight recorder.
 *
 * A kernel invariant violation used to be a raw assert: the host
 * process died with no postmortem.  CHERI_KASSERT replaces that.  On
 * failure it routes through the innermost registered panic sink (the
 * live Kernel), which captures the flight-recorder ring, emits a
 * CHRIIMG1 snapshot plus a JSON panic report, transactionally resets
 * the kernel to empty, and unwinds via panic::Unwind — the host
 * process survives and `cheri_replay restore` works as a postmortem
 * debugger on the emitted image.  With no sink registered (standalone
 * mem-layer tests), the macro degrades to the classic print-and-abort.
 *
 * The flight recorder is a fixed-size ring of the last N syscall
 * dispatches, scheduler block/wake events, FD wake edges, and
 * fault-injection decisions.  It is observability state only: it is
 * never serialized into snapshots and never consulted by execution, so
 * recording cannot perturb replay determinism.
 *
 * The sink registry is header-only (inline) on purpose: src/cap and
 * src/mem sit below src/os in the link graph, and converting their
 * asserts must not drag cheri_os into their dependents.  This header
 * therefore includes nothing above cap/types.h.
 */

#ifndef CHERI_OS_PANIC_H
#define CHERI_OS_PANIC_H

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "cap/types.h"

namespace cheri::panic
{

/** What a failed kernel assertion reports to the sink. */
struct KassertInfo
{
    const char *file = nullptr;
    int line = 0;
    const char *expr = nullptr;
    const char *why = nullptr;
};

/**
 * Thrown by the sink after capture; unwinds to the nearest kernel
 * entry point (dispatch / runUntilIdle), which completes the
 * reset-to-empty instead of letting the exception kill the host.
 */
struct Unwind
{
    std::string reason;
};

class Sink
{
  public:
    virtual ~Sink() = default;
    /** Capture state and throw panic::Unwind; must not return. */
    [[noreturn]] virtual void onKassert(const KassertInfo &info) = 0;
};

/** Innermost-wins stack of live sinks (one per constructed Kernel). */
inline std::vector<Sink *> &
sinkStack()
{
    static std::vector<Sink *> stack;
    return stack;
}

inline void
pushSink(Sink *s)
{
    sinkStack().push_back(s);
}

inline void
popSink(Sink *s)
{
    auto &st = sinkStack();
    for (auto it = st.rbegin(); it != st.rend(); ++it) {
        if (*it == s) {
            st.erase(std::next(it).base());
            return;
        }
    }
}

[[noreturn]] inline void
kassertFail(const char *file, int line, const char *expr, const char *why)
{
    auto &st = sinkStack();
    if (!st.empty())
        st.back()->onKassert({file, line, expr, why});
    std::fprintf(stderr, "kernel assertion failed: %s (%s) at %s:%d\n",
                 expr, why && *why ? why : "-", file, line);
    std::abort();
}

/** Flight-recorder event classes. */
enum class EventKind : u8
{
    /** a = pid, b = syscall code, c = quiescentSeq. */
    Syscall = 0,
    /** a = pid, b = tid, c = block kind (sched::BlockKind). */
    SchedBlock,
    /** a = pid, b = tid, c = block kind being woken from. */
    SchedWake,
    /** a = wait-channel token, b = contexts woken. */
    WakeEdge,
    /** a = FaultPoint, b = decision (0/1). */
    FaultDecision,
    /** a = stuck contexts, b = victim pid (0 = report-only). */
    Watchdog,
    /** a = guest VA, b = FaultPoint that corrupted it. */
    MachineCheck,
    /** a = line number; recorded as the final entry during capture. */
    Panic,
};

std::string_view eventKindName(EventKind k);

struct Event
{
    /** Monotonic 1-based index over all record() calls. */
    u64 seq = 0;
    EventKind kind = EventKind::Syscall;
    u64 a = 0, b = 0, c = 0;
};

/**
 * Fixed-depth ring of recent kernel events.  Depth 0 disables
 * retention (the counter still advances) — the bench's ablation axis.
 */
class FlightRecorder
{
  public:
    void
    setDepth(u64 d)
    {
        depth = d;
        ring.clear();
        ring.reserve(depth);
        head = 0;
    }

    void
    record(EventKind k, u64 a = 0, u64 b = 0, u64 c = 0)
    {
        ++recorded;
        if (depth == 0)
            return;
        Event e{recorded, k, a, b, c};
        if (ring.size() < depth) {
            ring.push_back(e);
        } else {
            ring[head] = e;
            head = (head + 1) % depth;
        }
    }

    /** Retained window, oldest first. */
    std::vector<Event>
    entries() const
    {
        std::vector<Event> out;
        out.reserve(ring.size());
        for (u64 i = 0; i < ring.size(); ++i)
            out.push_back(ring[(head + i) % ring.size()]);
        return out;
    }

    /** Total record() calls over the recorder's lifetime. */
    u64 eventsRecorded() const { return recorded; }

    /** Entries currently retained (<= depth). */
    u64 size() const { return ring.size(); }

    void
    clear()
    {
        ring.clear();
        head = 0;
    }

  private:
    u64 depth = 64;
    std::vector<Event> ring;
    u64 head = 0;
    u64 recorded = 0;
};

/** Render the retained window as a JSON array (panic reports and the
 *  fuzzer's .panic.json artifacts). */
std::string ringToJson(const FlightRecorder &fr);

} // namespace cheri::panic

/** Kernel-layer assertion: capture + snapshot + reset instead of a
 *  host abort.  @p why is a short human explanation of the invariant. */
#define CHERI_KASSERT(cond, why)                                             \
    do {                                                                     \
        if (!(cond))                                                         \
            ::cheri::panic::kassertFail(__FILE__, __LINE__, #cond, (why));   \
    } while (0)

#endif // CHERI_OS_PANIC_H
