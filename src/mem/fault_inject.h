/**
 * @file
 * Deterministic fault injection for the memory-pressure choke points.
 *
 * Resource-exhaustion paths (allocation failure, swap-device errors)
 * are the rarest-driven code in a VM system and historically where
 * capability invariants break.  The injector lets tests and benches
 * force every one of them on demand, deterministically: each choke
 * point reports its events through shouldFail(), and an armed point
 * fires either on the Nth upcoming event (trigger-on-Nth) or on a
 * seeded pseudo-random schedule that replays identically for the same
 * seed.  No wall-clock or host randomness is ever consulted.
 */

#ifndef CHERI_MEM_FAULT_INJECT_H
#define CHERI_MEM_FAULT_INJECT_H

#include <array>

#include "cap/types.h"

namespace cheri
{

namespace snap
{
struct Access;
}

class MemEvents;

/** The choke points the injector can fail. */
enum class FaultPoint : unsigned
{
    /** PhysMem::allocFrame / canAlloc. */
    FrameAlloc = 0,
    /** SwapDevice::swapOut. */
    SwapOut,
    /** SwapDevice::swapIn. */
    SwapIn,
    /** SwapDevice::sweepSlot — the revocation sweep's read of a
     *  swapped page's tag metadata (a device I/O like any other). */
    SweepScan,
    /** Memory corruption: flip (clear) the tag bit of a tagged granule
     *  at a capability load, or of a swapped page's tag metadata.
     *  Detection raises CapFault::MachineCheck, never a host abort. */
    TagBitFlip,
    /** Memory corruption: corrupt data bytes under a plain load; the
     *  detection path raises a machine check like TagBitFlip. */
    DataBitFlip,
    /** Deadlock-watchdog victim kill: not a failure the injector arms
     *  itself, but a kernel decision routed through confirm() so the
     *  replay tap records it and substitutes it bit-for-bit. */
    DeadlockKill,
};

constexpr unsigned numFaultPoints = 7;

/**
 * Observer of (and authority over) every injection decision.  The
 * record/replay layer installs one: in record mode it logs each
 * decision and passes it through; in replay mode it substitutes the
 * logged decision, making fault injection a replayed input rather than
 * recomputed state.
 */
class FaultTap
{
  public:
    virtual ~FaultTap() = default;
    /** Called once per shouldFail(); the return value is the decision
     *  the choke point actually sees. */
    virtual bool onFault(FaultPoint point, bool decision) = 0;
};

class FaultInjector
{
  public:
    /** Fail the @p nth upcoming event at @p point (1 = the very next),
     *  then disarm.  @p nth of 0 disarms. */
    void failAfter(FaultPoint point, u64 nth);

    /**
     * Fail roughly one event in @p period at @p point, on a schedule
     * derived only from @p seed — two injectors armed with the same
     * (period, seed) fire on exactly the same event numbers.  Stays
     * armed until disarmed.
     */
    void failRandomly(FaultPoint point, u64 period, u64 seed);

    void disarm(FaultPoint point);
    void disarmAll();

    /**
     * Report one event at @p point; returns true when the injector
     * decides this event fails.  Called by the choke points themselves;
     * counts events even while disarmed so Nth-event arming composes
     * with prior traffic predictably.
     *
     * Inline: a disarmed point with no tap only counts the event.
     */
    bool
    shouldFail(FaultPoint point)
    {
        Arm &a = arms[index(point)];
        if (a.mode == Mode::Off && !tap) {
            ++a.seen;
            return false;
        }
        return decide(a, point);
    }

    /**
     * Report a decision the KERNEL already made at @p point (e.g. the
     * deadlock watchdog choosing to kill a victim) so it flows through
     * the same record/replay tap as injected failures.  The tap's
     * answer is authoritative, exactly as in shouldFail(): record logs
     * @p decision and passes it through; replay substitutes the logged
     * decision, making the kernel's choice a replayed input.
     */
    bool confirm(FaultPoint point, bool decision);

    /** Install (or clear, with nullptr) the record/replay tap. */
    void setTap(FaultTap *t) { tap = t; }

    /** Told of every decision that fires (MemEvents::faultFired);
     *  nullable.  Unlike the tap it has no authority over the
     *  decision. */
    void setMemEvents(MemEvents *ev) { memEvents = ev; }

    /** Disarm every point and zero the seen/fired counters (panic
     *  reset: the rebuilt kernel starts from injector state zero). */
    void resetArms();

    /** Events seen at @p point since construction/reset. */
    u64 events(FaultPoint point) const;

    /** Failures injected at @p point. */
    u64 injected(FaultPoint point) const;

  private:
    /** Checkpoint/restore serializes the per-point arm state. */
    friend struct snap::Access;

    enum class Mode
    {
        Off,
        Nth,
        Random,
    };

    struct Arm
    {
        Mode mode = Mode::Off;
        /** Nth mode: events remaining before the one that fails. */
        u64 countdown = 0;
        /** Random mode: average events per failure. */
        u64 period = 0;
        /** Random mode: LCG state, advanced once per event. */
        u64 lcg = 0;
        u64 seen = 0;
        u64 fired = 0;
    };

    static unsigned index(FaultPoint p) { return static_cast<unsigned>(p); }

    /** shouldFail for an armed point or under a tap. */
    bool decide(Arm &a, FaultPoint point);

    /** Count a final decision; report it if it fired. */
    bool settle(Arm &a, FaultPoint point, bool fire);

    std::array<Arm, numFaultPoints> arms{};
    FaultTap *tap = nullptr;
    MemEvents *memEvents = nullptr;
};

} // namespace cheri

#endif // CHERI_MEM_FAULT_INJECT_H
