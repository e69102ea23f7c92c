#include "mem/fault_inject.h"

namespace cheri
{

void
FaultInjector::failAfter(FaultPoint point, u64 nth)
{
    Arm &a = arms[index(point)];
    if (nth == 0) {
        a.mode = Mode::Off;
        return;
    }
    a.mode = Mode::Nth;
    a.countdown = nth;
}

void
FaultInjector::failRandomly(FaultPoint point, u64 period, u64 seed)
{
    Arm &a = arms[index(point)];
    if (period == 0) {
        a.mode = Mode::Off;
        return;
    }
    a.mode = Mode::Random;
    a.period = period;
    // Mix the point index into the seed so arming several points with
    // one seed still gives them independent schedules.
    a.lcg = seed * 0x9E3779B97F4A7C15ull + index(point) + 1;
}

void
FaultInjector::disarm(FaultPoint point)
{
    arms[index(point)].mode = Mode::Off;
}

void
FaultInjector::disarmAll()
{
    for (Arm &a : arms)
        a.mode = Mode::Off;
}

bool
FaultInjector::decide(Arm &a, FaultPoint point)
{
    ++a.seen;
    bool fire = false;
    switch (a.mode) {
      case Mode::Off:
        break;
      case Mode::Nth:
        if (--a.countdown == 0) {
            a.mode = Mode::Off; // one-shot
            fire = true;
        }
        break;
      case Mode::Random:
        a.lcg = a.lcg * 6364136223846793005ull + 1442695040888963407ull;
        // Top bits of an LCG are the well-distributed ones.
        fire = (a.lcg >> 33) % a.period == 0;
        break;
    }
    return settle(a, point, fire);
}

bool
FaultInjector::confirm(FaultPoint point, bool decision)
{
    Arm &a = arms[index(point)];
    ++a.seen;
    return settle(a, point, decision);
}

bool
FaultInjector::settle(Arm &a, FaultPoint point, bool fire)
{
    // The tap's answer is authoritative: record logs `fire` and passes
    // it through; replay substitutes the logged decision, so the fired
    // counter tracks what the choke point actually saw.
    if (tap)
        fire = tap->onFault(point, fire);
    a.fired += fire;
    if (fire && observer)
        observer(point);
    return fire;
}

void
FaultInjector::resetArms()
{
    for (Arm &a : arms)
        a = Arm{};
}

u64
FaultInjector::events(FaultPoint point) const
{
    return arms[index(point)].seen;
}

u64
FaultInjector::injected(FaultPoint point) const
{
    return arms[index(point)].fired;
}

} // namespace cheri
