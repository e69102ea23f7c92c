#include "check/replay.h"

#include <cinttypes>
#include <cstring>
#include <iterator>

#include "check/strfmt.h"
#include "os/kernel.h"
#include "os/sysnum.h"

namespace cheri::check
{

namespace
{

constexpr char logMagic[8] = {'C', 'H', 'R', 'I', 'L', 'O', 'G', '1'};

enum : u8
{
    TAG_RNG = 1,
    TAG_FAULT = 2,
    TAG_QUIESCE = 3,
    TAG_CASE_END = 4,
    TAG_END = 5,
};

void
put64(std::vector<u8> &out, u64 v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<u8>(v >> (8 * i)));
}

bool
get64(const std::vector<u8> &in, u64 &pos, u64 &v)
{
    if (in.size() - pos < 8)
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<u64>(in[pos + static_cast<u64>(i)]) << (8 * i);
    pos += 8;
    return true;
}

constexpr u64 fnvOffset = 1469598103934665603ULL;
constexpr u64 fnvPrime = 1099511628211ULL;

void
fnv(u64 &h, u64 v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= fnvPrime;
    }
}

void
fnvCap(u64 &h, const Capability &c)
{
    fnv(h, c.tag() ? 1 : 0);
    fnv(h, c.base());
    fnv(h, static_cast<u64>(c.top()));
    fnv(h, static_cast<u64>(c.top() >> 64));
    fnv(h, c.address());
    fnv(h, c.perms());
    fnv(h, static_cast<u64>(c.otype()));
}

/** FNV-1a over the full register file, capability tags included: a
 *  single flipped tag bit changes the digest. */
u64
hashRegs(const ThreadRegs &r)
{
    u64 h = fnvOffset;
    fnvCap(h, r.pcc);
    fnvCap(h, r.ddc);
    for (const Capability &c : r.c)
        fnvCap(h, c);
    for (u64 x : r.x)
        fnv(h, x);
    return h;
}

/** Digest of the kernel's observable counters — the cheap whole-system
 *  fingerprint checked at every quiescent point.  It covers every
 *  KernelCounters field, by walking the blocks' field lists. */
u64
hashStats(Kernel &kern)
{
    u64 h = fnvOffset;
    fnv(h, kern.physMem().totalAllocated());
    fnv(h, kern.physMem().failedAllocs());
    fnv(h, kern.physMem().reclaimRequests());
    auto block = [&](const auto &b) {
        forEachField(b, [&](const auto &, u64 v) { fnv(h, v); });
    };
    forEachBlock(block, kern.counters());
    return h;
}

std::string
sysNameOf(u64 code)
{
    const SyscallInfo *si = syscallInfo(code);
    return std::string(si ? si->name : "invalid");
}

const char *
tagName(u8 tag)
{
    switch (tag) {
      case TAG_RNG: return "rng";
      case TAG_FAULT: return "fault";
      case TAG_QUIESCE: return "quiesce";
      case TAG_CASE_END: return "case-end";
      case TAG_END: return "end";
      default: return "?";
    }
}

} // namespace

void
ReplaySession::emit(const Entry &e)
{
    log.push_back(e);
    ++entries;
}

const ReplaySession::Entry *
ReplaySession::next()
{
    if (cursor >= log.size())
        return nullptr;
    return &log[cursor++];
}

void
ReplaySession::diverge(ReplayDivergence d)
{
    ++divCount;
    if (divs.size() < maxDivergences)
        divs.push_back(std::move(d));
}

u64
ReplaySession::rngDraw(u64 raw)
{
    if (recording()) {
        Entry e;
        e.tag = TAG_RNG;
        e.a = raw;
        emit(e);
        return raw;
    }
    const Entry *e = next();
    if (!e || e->tag != TAG_RNG) {
        ReplayDivergence d;
        d.seq = cursor;
        d.field = "log-sync";
        d.detail = fmt("expected rng entry, log has %s",
                       e ? tagName(e->tag) : "end-of-log");
        diverge(std::move(d));
        return raw;
    }
    if (e->a != raw) {
        ReplayDivergence d;
        d.seq = cursor;
        d.field = "rng";
        d.detail = fmt("recorded draw %016" PRIx64 ", replay drew %016"
                       PRIx64, e->a, raw);
        diverge(std::move(d));
    }
    // The log is the authoritative input stream.
    return e->a;
}

bool
ReplaySession::onFault(FaultPoint point, bool decision)
{
    if (recording()) {
        Entry e;
        e.tag = TAG_FAULT;
        e.a = static_cast<u64>(point);
        e.b = decision ? 1 : 0;
        emit(e);
        return decision;
    }
    const Entry *e = next();
    if (!e || e->tag != TAG_FAULT) {
        ReplayDivergence d;
        d.seq = cursor;
        d.field = "log-sync";
        d.detail = fmt("expected fault entry, log has %s",
                       e ? tagName(e->tag) : "end-of-log");
        diverge(std::move(d));
        return decision;
    }
    if (e->a != static_cast<u64>(point)) {
        ReplayDivergence d;
        d.seq = cursor;
        d.field = "fault-point";
        d.detail = fmt("recorded point %" PRIu64 ", replay hit %u", e->a,
                       static_cast<unsigned>(point));
        diverge(std::move(d));
    }
    // Substitute the logged decision: fault injection is a replayed
    // input, not recomputed state.
    return e->b != 0;
}

void
ReplaySession::quiesce(Kernel &kern, Process &proc, u64 code)
{
    Entry now;
    now.tag = TAG_QUIESCE;
    now.a = quiesceSeq++;
    now.b = proc.pid();
    now.code = code;
    now.regHash = hashRegs(proc.regs());
    now.frames = kern.physMem().liveFrames();
    now.slots = kern.swapDevice().usedSlots();
    now.statsHash = hashStats(kern);
    if (recording()) {
        emit(now);
        return;
    }
    if (plantArmed && now.a == plantSeq)
        now.regHash ^= 1; // deliberate corruption (negative self-test)
    const Entry *e = next();
    if (!e || e->tag != TAG_QUIESCE) {
        ReplayDivergence d;
        d.seq = now.a;
        d.field = "log-sync";
        d.detail = fmt("expected quiesce entry, log has %s",
                       e ? tagName(e->tag) : "end-of-log");
        d.pid = now.b;
        d.sysCode = code;
        d.sysName = sysNameOf(code);
        diverge(std::move(d));
        return;
    }
    const char *field = nullptr;
    std::string detail;
    if (e->a != now.a) {
        field = "seq";
        detail = fmt("recorded %" PRIu64 ", replayed %" PRIu64, e->a,
                     now.a);
    } else if (e->b != now.b) {
        field = "pid";
        detail = fmt("recorded pid %" PRIu64 ", replayed pid %" PRIu64,
                     e->b, now.b);
    } else if (e->code != now.code) {
        field = "syscall";
        detail = fmt("recorded %s(%" PRIu64 "), replayed %s(%" PRIu64 ")",
                     sysNameOf(e->code).c_str(), e->code,
                     sysNameOf(now.code).c_str(), now.code);
    } else if (e->regHash != now.regHash) {
        field = "regHash";
        detail = fmt("recorded %016" PRIx64 ", replayed %016" PRIx64,
                     e->regHash, now.regHash);
    } else if (e->frames != now.frames) {
        field = "frames";
        detail = fmt("recorded %" PRIu64 " live frames, replayed %" PRIu64,
                     e->frames, now.frames);
    } else if (e->slots != now.slots) {
        field = "slots";
        detail = fmt("recorded %" PRIu64 " swap slots, replayed %" PRIu64,
                     e->slots, now.slots);
    } else if (e->statsHash != now.statsHash) {
        field = "statsHash";
        detail = fmt("recorded %016" PRIx64 ", replayed %016" PRIx64,
                     e->statsHash, now.statsHash);
    }
    if (field) {
        ReplayDivergence d;
        d.seq = now.a;
        d.field = field;
        d.detail = std::move(detail);
        d.pid = now.b;
        d.sysCode = code;
        d.sysName = sysNameOf(code);
        diverge(std::move(d));
    }
}

void
ReplaySession::caseEnd(u64 index)
{
    if (recording()) {
        Entry e;
        e.tag = TAG_CASE_END;
        e.a = index;
        emit(e);
        return;
    }
    const Entry *e = next();
    if (!e || e->tag != TAG_CASE_END || e->a != index) {
        ReplayDivergence d;
        d.seq = cursor;
        d.field = "case-end";
        d.detail = fmt("case %" PRIu64 " boundary misaligned with log",
                       index);
        diverge(std::move(d));
    }
}

void
ReplaySession::finish()
{
    if (finished)
        return;
    finished = true;
    if (recording()) {
        Entry e;
        e.tag = TAG_END;
        emit(e);
        return;
    }
    const Entry *e = next();
    if (!e || e->tag != TAG_END) {
        ReplayDivergence d;
        d.seq = cursor;
        d.field = "log-sync";
        d.detail =
            e ? fmt("replay consumed the log but %" PRIu64
                    " entries remain",
                    log.size() - cursor + 1)
              : std::string("log ends without an end marker");
        diverge(std::move(d));
    }
}

std::vector<u8>
ReplaySession::serialize(const FuzzOptions &opts) const
{
    std::vector<u8> out(std::begin(logMagic), std::end(logMagic));
    put64(out, logVersion);
    put64(out, opts.seed);
    put64(out, opts.cases);
    put64(out, opts.opsPerCase);
    put64(out, opts.inject ? 1 : 0);
    put64(out, opts.checkEvery);
    put64(out, opts.plantSlotBug ? 1 : 0);
    put64(out, opts.frameCapacity);
    put64(out, opts.swapSlotBudget);
    put64(out, opts.multiProc);
    // Mid-run artifact dumps serialize an unfinished log; append the
    // end marker so the emitted file replays cleanly on its own.
    bool needEnd = log.empty() || log.back().tag != TAG_END;
    put64(out, log.size() + (needEnd ? 1 : 0));
    for (const Entry &e : log) {
        out.push_back(e.tag);
        put64(out, e.a);
        put64(out, e.b);
        if (e.tag == TAG_QUIESCE) {
            put64(out, e.code);
            put64(out, e.regHash);
            put64(out, e.frames);
            put64(out, e.slots);
            put64(out, e.statsHash);
        }
    }
    if (needEnd) {
        out.push_back(TAG_END);
        put64(out, 0);
        put64(out, 0);
    }
    return out;
}

bool
ReplaySession::load(const std::vector<u8> &in, std::string *error)
{
    auto fail = [&](const char *msg) {
        if (error)
            *error = msg;
        return false;
    };
    if (in.size() < sizeof(logMagic) ||
        std::memcmp(in.data(), logMagic, sizeof(logMagic)) != 0)
        return fail("bad log magic");
    u64 pos = sizeof(logMagic);
    u64 v = 0;
    if (!get64(in, pos, v) || v != logVersion)
        return fail("unsupported log version");
    FuzzOptions o;
    u64 inject = 0, plant = 0;
    if (!get64(in, pos, o.seed) || !get64(in, pos, o.cases) ||
        !get64(in, pos, o.opsPerCase) || !get64(in, pos, inject) ||
        !get64(in, pos, o.checkEvery) || !get64(in, pos, plant) ||
        !get64(in, pos, o.frameCapacity) ||
        !get64(in, pos, o.swapSlotBudget) || !get64(in, pos, o.multiProc))
        return fail("truncated log header");
    o.inject = inject != 0;
    o.plantSlotBug = plant != 0;
    u64 count = 0;
    if (!get64(in, pos, count) || count > in.size())
        return fail("corrupt log entry count");
    std::vector<Entry> parsed;
    parsed.reserve(count);
    for (u64 i = 0; i < count; ++i) {
        if (pos >= in.size())
            return fail("truncated log");
        Entry e;
        e.tag = in[pos++];
        if (e.tag < TAG_RNG || e.tag > TAG_END)
            return fail("corrupt log entry tag");
        if (!get64(in, pos, e.a) || !get64(in, pos, e.b))
            return fail("truncated log entry");
        if (e.tag == TAG_QUIESCE) {
            if (!get64(in, pos, e.code) || !get64(in, pos, e.regHash) ||
                !get64(in, pos, e.frames) || !get64(in, pos, e.slots) ||
                !get64(in, pos, e.statsHash))
                return fail("truncated quiesce entry");
        }
        parsed.push_back(e);
    }
    hdrOpts = o;
    log = std::move(parsed);
    entries = log.size();
    cursor = 0;
    return true;
}

std::string
ReplaySession::firstDivergence() const
{
    if (divs.empty())
        return "";
    const ReplayDivergence &d = divs.front();
    return fmt("divergence at quiescent point %" PRIu64 " (pid %" PRIu64
               ", syscall %s(%" PRIu64 ")): %s differs — %s",
               d.seq, d.pid, d.sysName.c_str(), d.sysCode,
               d.field.c_str(), d.detail.c_str());
}

} // namespace cheri::check
