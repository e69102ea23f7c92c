#include "check/replay.h"

#include <bit>
#include <cinttypes>
#include <cstring>

#include "check/digest.h"
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

/** Header words after the magic: the version, then nine FuzzOptions
 *  fields. */
constexpr u64 headerWords = 10;
/** Every entry: the tag byte, then a and b. */
constexpr u64 entryBytes = 1 + 2 * 8;
/** A quiesce entry's digest tail: code, regHash, frames, slots,
 *  statsHash. */
constexpr u64 quiesceTailBytes = 5 * 8;

/** Log words are little-endian on every host. */
u64
littleEndian(u64 v)
{
    if constexpr (std::endian::native == std::endian::big)
        return __builtin_bswap64(v);
    return v;
}

/** Appends into a buffer sized up front, one whole word at a time. */
struct LogWriter
{
    u8 *p;

    void byte(u8 b) { *p++ = b; }

    void
    word(u64 v)
    {
        v = littleEndian(v);
        std::memcpy(p, &v, 8);
        p += 8;
    }
};

bool
get64(const std::vector<u8> &in, u64 &pos, u64 &v)
{
    if (in.size() - pos < 8)
        return false;
    std::memcpy(&v, in.data() + pos, 8);
    v = littleEndian(v);
    pos += 8;
    return true;
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
    // Mid-run artifact dumps serialize an unfinished log; append the
    // end marker so the emitted file replays cleanly on its own.
    bool needEnd = log.empty() || log.back().tag != TAG_END;
    u64 count = log.size() + (needEnd ? 1 : 0);
    u64 quiesces = 0;
    for (const Entry &e : log)
        quiesces += e.tag == TAG_QUIESCE;
    std::vector<u8> out(sizeof(logMagic) + (headerWords + 1) * 8 +
                        count * entryBytes + quiesces * quiesceTailBytes);
    std::memcpy(out.data(), logMagic, sizeof(logMagic));
    LogWriter w{out.data() + sizeof(logMagic)};
    w.word(logVersion);
    w.word(opts.seed);
    w.word(opts.cases);
    w.word(opts.opsPerCase);
    w.word(opts.inject ? 1 : 0);
    w.word(opts.checkEvery);
    w.word(opts.plantSlotBug ? 1 : 0);
    w.word(opts.frameCapacity);
    w.word(opts.swapSlotBudget);
    w.word(opts.multiProc);
    w.word(count);
    for (const Entry &e : log) {
        w.byte(e.tag);
        w.word(e.a);
        w.word(e.b);
        if (e.tag == TAG_QUIESCE) {
            w.word(e.code);
            w.word(e.regHash);
            w.word(e.frames);
            w.word(e.slots);
            w.word(e.statsHash);
        }
    }
    if (needEnd) {
        w.byte(TAG_END);
        w.word(0);
        w.word(0);
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
