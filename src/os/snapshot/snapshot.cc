/**
 * @file
 * Checkpoint/restore implementation: the snap::Access seam.
 *
 * Everything here is a static member of snap::Access, the single friend
 * every serialized class names.  The image is a little-endian byte
 * stream of tagged sections in dependency order — config, frames, swap,
 * vfs, processes, kernel scalars, injector, metrics, scheduler — so a
 * truncated image fails cleanly partway through and the abort path
 * (resetToEmpty) can always rebuild a usable kernel.
 *
 * Reading is bounds-checked at every step: a corrupt or truncated image
 * raises an internal ParseError, never a host fault, and forged counts
 * cannot allocate past the image's own size.
 */

#include "os/snapshot/snapshot.h"

#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "os/kernel.h"
#include "os/sched/sched.h"

namespace cheri::snap
{

namespace
{

/** Image magic: 8 bytes at offset 0. */
constexpr char imageMagic[8] = {'C', 'H', 'R', 'I', 'I', 'M', 'G', '1'};

/** Bytes of one saved page-table entry: va, frame id, prot, cow, shared,
 *  swapped, slot, lastUse, capDirty, sweptEpoch, queuedEpoch. */
constexpr u64 pageRecordBytes = 8 + 4 + 4 + 1 + 1 + 1 + 8 + 8 + 1 + 8 + 8;

/** Section tags, in stream order. */
enum SectionTag : u32
{
    SEC_CONFIG = 0x43484101,
    SEC_FRAMES,
    SEC_SWAP,
    SEC_VFS,
    SEC_PROCS,
    SEC_KERNEL,
    SEC_INJECT,
    SEC_METRICS,
    SEC_SCHED,
    SEC_END,
};

struct Writer
{
    std::vector<u8> out;

    void put8(u8 v) { out.push_back(v); }
    void putBool(bool v) { out.push_back(v ? 1 : 0); }
    void
    put16(u16 v)
    {
        put8(static_cast<u8>(v));
        put8(static_cast<u8>(v >> 8));
    }
    void
    put32(u32 v)
    {
        for (int i = 0; i < 4; ++i)
            put8(static_cast<u8>(v >> (8 * i)));
    }
    void
    put64(u64 v)
    {
        for (int i = 0; i < 8; ++i)
            put8(static_cast<u8>(v >> (8 * i)));
    }
    void
    putBytes(const void *p, u64 n)
    {
        const u8 *b = static_cast<const u8 *>(p);
        out.insert(out.end(), b, b + n);
    }
    void
    putStr(const std::string &s)
    {
        put64(s.size());
        putBytes(s.data(), s.size());
    }
};

/** Internal parse failure; caught at the restore top level only. */
struct ParseError
{
    explicit ParseError(std::string m) : msg(std::move(m)) {}
    std::string msg;
};

class Reader
{
  public:
    explicit Reader(const std::vector<u8> &v)
        : p(v.data()), end(v.data() + v.size())
    {
    }

    u64 remaining() const { return static_cast<u64>(end - p); }

    void
    need(u64 n)
    {
        if (remaining() < n)
            throw ParseError("truncated image");
    }
    u8
    get8()
    {
        need(1);
        return *p++;
    }
    bool
    getBool()
    {
        u8 v = get8();
        if (v > 1)
            throw ParseError("corrupt boolean");
        return v != 0;
    }
    u16
    get16()
    {
        u16 v = get8();
        v |= static_cast<u16>(get8()) << 8;
        return v;
    }
    u32
    get32()
    {
        u32 v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<u32>(get8()) << (8 * i);
        return v;
    }
    u64
    get64()
    {
        u64 v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<u64>(get8()) << (8 * i);
        return v;
    }
    void
    getBytes(void *dst, u64 n)
    {
        need(n);
        if (n != 0)
            std::memcpy(dst, p, n);
        p += n;
    }
    std::string
    getStr()
    {
        u64 n = get64();
        need(n);
        std::string s(reinterpret_cast<const char *>(p), n);
        p += n;
        return s;
    }
    /** Enum byte with an inclusive upper bound. */
    u8
    getEnum(u8 max, const char *what)
    {
        u8 v = get8();
        if (v > max)
            throw ParseError(std::string("corrupt enum value: ") + what);
        return v;
    }
    /** Element count: bounded by the bytes left, so a forged count can
     *  never drive an allocation past the image's own size. */
    u64
    getCount()
    {
        u64 n = get64();
        if (n > remaining())
            throw ParseError("corrupt element count");
        return n;
    }
    void
    expect(u32 tag, const char *what)
    {
        if (get32() != tag)
            throw ParseError(std::string("bad section tag: ") + what);
    }

  private:
    const u8 *p;
    const u8 *end;
};

std::vector<u8>
refuse(std::string *error, std::string msg)
{
    if (error)
        *error = std::move(msg);
    return {};
}

} // namespace

struct Access
{
    /** @name Leaf value serializers */
    /// @{
    static void
    putCap(Writer &w, const Capability &c)
    {
        w.putBool(c._tag);
        w.put64(c._base);
        w.put64(static_cast<u64>(c._top));
        w.put64(static_cast<u64>(c._top >> 64));
        w.put64(c._address);
        w.put32(c._perms);
        w.put32(static_cast<u32>(c._otype));
        w.put8(static_cast<u8>(c._format));
        w.put64(c._rawMeta);
        w.putBool(c._hasRawMeta);
    }

    static Capability
    getCap(Reader &r)
    {
        Capability c;
        c._tag = r.getBool();
        c._base = r.get64();
        u64 lo = r.get64();
        u64 hi = r.get64();
        c._top = (static_cast<u128>(hi) << 64) | lo;
        c._address = r.get64();
        c._perms = r.get32();
        c._otype = static_cast<OType>(r.get32());
        c._format =
            static_cast<compress::CapFormat>(r.getEnum(1, "cap format"));
        c._rawMeta = r.get64();
        c._hasRawMeta = r.getBool();
        return c;
    }

    static void
    putRegs(Writer &w, const ThreadRegs &t)
    {
        putCap(w, t.pcc);
        putCap(w, t.ddc);
        for (const Capability &c : t.c)
            putCap(w, c);
        for (u64 x : t.x)
            w.put64(x);
    }

    static void
    getRegs(Reader &r, ThreadRegs &t)
    {
        t.pcc = getCap(r);
        t.ddc = getCap(r);
        for (Capability &c : t.c)
            c = getCap(r);
        for (u64 &x : t.x)
            x = r.get64();
    }

    static void
    putResult(Writer &w, const isa::InterpResult &res)
    {
        w.put8(static_cast<u8>(res.status));
        w.put64(res.steps);
        w.put8(static_cast<u8>(res.fault));
        w.put64(res.faultPc);
        w.put64(res.faultAddr);
        w.put8(static_cast<u8>(res.faultOp));
    }

    static isa::InterpResult
    getResult(Reader &r)
    {
        isa::InterpResult res;
        res.status =
            static_cast<isa::InterpResult::Status>(r.getEnum(4, "status"));
        res.steps = r.get64();
        res.fault = static_cast<CapFault>(
            r.getEnum(static_cast<u8>(numCapFaults - 1), "fault"));
        res.faultPc = r.get64();
        res.faultAddr = r.get64();
        res.faultOp = static_cast<isa::Op>(r.get8());
        return res;
    }

    static void
    putHistogram(Writer &w, const obs::Histogram &h)
    {
        for (u64 b : h.buckets)
            w.put64(b);
        w.put64(h.count);
        w.put64(h.sum);
        w.put64(h.min);
        w.put64(h.max);
    }

    static void
    getHistogram(Reader &r, obs::Histogram &h)
    {
        for (u64 &b : h.buckets)
            b = r.get64();
        h.count = r.get64();
        h.sum = r.get64();
        h.min = r.get64();
        h.max = r.get64();
    }
    /// @}

    /** Mint a frame on the live counter without consulting capacity or
     *  the injector: the image's frames were already admitted once. */
    static FrameRef
    mintFrame(PhysMem &phys)
    {
        auto counter = phys.live;
        ++*counter;
        return FrameRef(new Frame(), [counter](Frame *f) {
            --*counter;
            delete f;
        });
    }

    // ------------------------------------------------------------------
    // save
    // ------------------------------------------------------------------

    static std::vector<u8>
    saveImpl(Kernel &kern, std::string *error)
    {
        sched::Scheduler *sch = nullptr;
        if (kern.schedIface) {
            sch = dynamic_cast<sched::Scheduler *>(kern.schedIface);
            if (!sch)
                return refuse(error, "snapshot: installed scheduler is "
                                     "not a sched::Scheduler");
            for (const auto &h : sch->hosted) {
                if (h->state != sched::ExecContext::State::Done)
                    return refuse(error,
                                  "snapshot: a hosted (host-function) "
                                  "context is live and cannot be captured");
            }
            if (sch->current && sch->current->isHost())
                return refuse(error, "snapshot: a hosted context is "
                                     "running and cannot be captured");
        }
        for (const auto &[pid, p] : kern.procs) {
            if (!p->liveSigFrames.empty())
                return refuse(error, "snapshot: process " +
                                         std::to_string(pid) +
                                         " is inside a signal handler "
                                         "(live signal frames)");
            for (const auto &[start, region] : p->_as->regions) {
                (void)start;
                const Mapping &m = region.map;
                if (m.backing || m.backingWriter)
                    return refuse(error,
                                  "snapshot: process " +
                                      std::to_string(pid) +
                                      " has a file-backed mapping (host "
                                      "callback) at " + m.name);
            }
        }

        // ---- collect shared objects (deterministic order) ----
        std::map<const Frame *, u32> frameIds;
        std::vector<const Frame *> frameOrder;
        auto noteFrame = [&](const FrameRef &f) {
            if (!f || frameIds.count(f.get()))
                return;
            frameIds[f.get()] = static_cast<u32>(frameOrder.size() + 1);
            frameOrder.push_back(f.get());
        };
        for (const auto &[pid, p] : kern.procs) {
            (void)pid;
            AddressSpace::eachPte(
                *p->_as, [&](u64, const AddressSpace::Pte &pte) {
                    noteFrame(pte.frame);
                });
        }
        for (const auto &[id, seg] : kern.shmSegments) {
            (void)id;
            for (const FrameRef &f : seg.frames)
                noteFrame(f);
        }
        if (*kern.phys.live != frameOrder.size())
            return refuse(error,
                          "snapshot: " +
                              std::to_string(*kern.phys.live -
                                             frameOrder.size()) +
                              " live frame(s) not reachable from page "
                              "tables or shm segments");

        std::map<const ByteChannel *, u32> chanIds;
        std::vector<const ByteChannel *> chanOrder;
        std::map<const VNode *, u32> nodeIds;
        std::vector<const VNode *> nodeOrder;
        std::function<void(const VNodeRef &)> noteNode =
            [&](const VNodeRef &n) {
                if (!n || nodeIds.count(n.get()))
                    return;
                nodeIds[n.get()] = static_cast<u32>(nodeOrder.size() + 1);
                nodeOrder.push_back(n.get());
                auto noteChan =
                    [&](const std::shared_ptr<ByteChannel> &ch) {
                        if (!ch || chanIds.count(ch.get()))
                            return;
                        chanIds[ch.get()] =
                            static_cast<u32>(chanOrder.size() + 1);
                        chanOrder.push_back(ch.get());
                    };
                noteChan(n->readCh);
                noteChan(n->writeCh);
                for (const auto &[name, child] : n->children) {
                    (void)name;
                    noteNode(child);
                }
            };
        noteNode(kern.fs.root);
        std::map<const OpenFile *, u32> fileIds;
        std::vector<const OpenFile *> fileOrder;
        for (const auto &[pid, p] : kern.procs) {
            (void)pid;
            for (const OpenFileRef &of : p->fds) {
                if (!of)
                    continue;
                noteNode(of->node);
                if (!fileIds.count(of.get())) {
                    fileIds[of.get()] =
                        static_cast<u32>(fileOrder.size() + 1);
                    fileOrder.push_back(of.get());
                }
            }
        }
        u64 maxWaitToken = 0;
        for (const ByteChannel *ch : chanOrder) {
            maxWaitToken = std::max(maxWaitToken, ch->readWait);
            maxWaitToken = std::max(maxWaitToken, ch->writeWait);
        }

        Writer w;
        w.putBytes(imageMagic, sizeof(imageMagic));
        w.put32(imageVersion);

        // ---- config + layout constants ----
        w.put32(SEC_CONFIG);
        w.put32(numSysNums);
        w.put32(obs::Metrics::maxOps);
        w.put32(numTlbCounters);
        w.put32(numCapFaults);
        w.put32(numDeriveSources);
        w.put32(numSignals);
        w.put32(numCapRegs);
        w.put32(numFaultPoints);
        w.put64(pageSize);
        w.put8(static_cast<u8>(kern.cfg.capFormat));
        w.put8(static_cast<u8>(kern.cfg.swapPolicy));
        w.putBool(kern.cfg.features.largeClcImmediate);
        w.putBool(kern.cfg.features.asanInstrumentation);
        w.put64(kern.cfg.stackSize);
        w.put64(kern.cfg.aslrSeed);
        w.put64(kern.cfg.frameCapacity);
        w.put64(kern.cfg.swapSlotBudget);
        w.put64(kern.cfg.revokeSliceBudget);
        w.put64(kern.cfg.timeSliceSteps);

        // ---- physical frames ----
        w.put32(SEC_FRAMES);
        w.put64(kern.phys.allocated);
        w.put64(kern.phys.failed);
        w.put64(kern.phys.reclaims);
        w.put64(kern.phys.capacity);
        w.put64(frameOrder.size());
        for (const Frame *f : frameOrder) {
            w.putBytes(f->bytes().data(), pageSize);
            w.put64(f->taggedCount());
            f->forEachTagged([&](u64 off, const Capability &c) {
                w.put64(off);
                putCap(w, c);
            });
        }

        // ---- swap device ----
        w.put32(SEC_SWAP);
        w.put8(static_cast<u8>(kern.swap._policy));
        w.put64(kern.swap.budget);
        w.put64(kern.swap.nextSlot);
        w.put64(kern.swap.swapOuts);
        w.put64(kern.swap.tagsPreserved);
        w.put64(kern.swap.swapOutFailures);
        w.put64(kern.swap.swapInFailures);
        w.put64(kern.swap.sweepScanFailures);
        w.put64(kern.swap.discards);
        // unordered_map: emit in sorted slot order for determinism.
        std::map<u64, const SwapDevice::Slot *> sortedSlots;
        for (const auto &[id, slot] : kern.swap.slots)
            sortedSlots[id] = &slot;
        w.put64(sortedSlots.size());
        for (const auto &[id, slot] : sortedSlots) {
            w.put64(id);
            w.putBytes(slot->bytes.data(), pageSize);
            w.put64(slot->tagMeta.size());
            for (const auto &[off, pattern] : slot->tagMeta) {
                w.put64(off);
                putCap(w, pattern);
            }
            w.put64(slot->refs);
        }

        // ---- vfs ----
        w.put32(SEC_VFS);
        w.put64(chanOrder.size());
        for (const ByteChannel *ch : chanOrder) {
            w.put64(ch->buf.size());
            for (u8 b : ch->buf)
                w.put8(b);
            w.putBool(ch->writerClosed);
            w.putBool(ch->readerClosed);
            w.put64(ch->readWait);
            w.put64(ch->writeWait);
        }
        w.put64(nodeOrder.size());
        for (const VNode *n : nodeOrder) {
            w.put8(static_cast<u8>(n->kind));
            w.putStr(n->name);
            w.put64(n->data.size());
            w.putBytes(n->data.data(), n->data.size());
            w.put64(n->children.size());
            for (const auto &[name, child] : n->children) {
                w.putStr(name);
                w.put32(nodeIds.at(child.get()));
            }
            w.put32(n->readCh ? chanIds.at(n->readCh.get()) : 0);
            w.put32(n->writeCh ? chanIds.at(n->writeCh.get()) : 0);
        }
        w.put32(nodeIds.at(kern.fs.root.get()));
        w.put64(fileOrder.size());
        for (const OpenFile *of : fileOrder) {
            w.put32(nodeIds.at(of->node.get()));
            w.put64(of->offset);
            w.put32(of->flags);
        }
        w.put64(maxWaitToken);

        // ---- processes ----
        w.put32(SEC_PROCS);
        w.put64(kern.procs.size());
        for (const auto &[pid, p] : kern.procs) {
            w.put64(pid);
            w.put64(p->_ppid);
            w.put8(static_cast<u8>(p->_abi));
            w.putStr(p->_name);
            w.putBool(p->_cost._features.largeClcImmediate);
            w.putBool(p->_cost._features.asanInstrumentation);

            const AddressSpace &as = *p->_as;
            w.put64(as._principal);
            w.put64(as.aslrSlide);
            w.put8(static_cast<u8>(as.fmt));
            putCap(w, as.root);
            w.put64(as.useClock);
            w.put8(static_cast<u8>(as.walkFault));
            w.put64(as.activeSweepEpoch);
            w.put64(as.redirtied.size());
            for (u64 va : as.redirtied)
                w.put64(va);
            w.put64(as.regions.size());
            u64 nPages = 0;
            for (const auto &[start, region] : as.regions) {
                const Mapping &m = region.map;
                nPages += region.ptes.size();
                w.put64(start);
                w.put64(m.len);
                w.put32(m.prot);
                w.put8(static_cast<u8>(m.kind));
                w.putBool(m.shared);
                w.putStr(m.name);
                w.put64(m.backingOffset);
            }
            w.put64(nPages);
            AddressSpace::eachPte(as, [&](u64 va,
                                          const AddressSpace::Pte &pte) {
                w.put64(va);
                w.put32(pte.frame ? frameIds.at(pte.frame.get()) : 0);
                w.put32(pte.prot);
                w.putBool(pte.cow);
                w.putBool(pte.shared);
                w.putBool(pte.swapped);
                w.put64(pte.swapSlot);
                w.put64(pte.lastUse);
                w.putBool(pte.capDirty);
                w.put64(pte.sweptEpoch);
                w.put64(pte.queuedEpoch);
            });

            putRegs(w, p->_regs);

            const CostModel &cm = p->_cost;
            w.put64(cm._instructions);
            w.put64(cm._cycles);
            w.put64(cm._codeBytes);
            w.put64(cm._itlbAccesses);
            w.put64(cm._itlbMisses);
            w.put64(cm._dtlbAccesses);
            w.put64(cm._dtlbMisses);
            w.put64(cm.pc);
            w.put64(cm.codeFootprint);
            for (const Cache *c :
                 {&cm.cacheHier.l1i, &cm.cacheHier.l1d, &cm.cacheHier.l2}) {
                w.put64(c->lineBytes);
                w.put64(c->numSets);
                w.put32(c->ways);
                w.put64(c->tick);
                w.put64(c->_hits);
                w.put64(c->_misses);
                w.put64(c->sets.size());
                for (const Cache::Way &way : c->sets) {
                    w.put64(way.tag);
                    w.putBool(way.valid);
                    w.put64(way.lru);
                }
            }

            w.put64(p->fds.size());
            for (const OpenFileRef &of : p->fds)
                w.put32(of ? fileIds.at(of.get()) : 0);

            w.put64(p->threads.size());
            for (const ThreadRecord &t : p->threads) {
                w.put64(t.tid);
                putRegs(w, t.saved);
                putCap(w, t.stackCap);
                w.putBool(t.live);
            }
            w.put64(p->curThread);
            w.put64(p->nextTid);

            for (const SigAction &a : p->sigActions) {
                w.put8(static_cast<u8>(a.kind));
                w.put64(a.handlerId);
            }
            w.put64(p->sigPending);
            w.put64(p->sigMask);

            putCap(w, p->stackCap);
            putCap(w, p->argvCap);
            putCap(w, p->envvCap);
            putCap(w, p->auxvCap);
            putCap(w, p->trampolineCap);
            w.put32(static_cast<u32>(p->argc));
            w.put32(static_cast<u32>(p->envc));
            w.put64(p->heapHint);
            w.put64(p->brkBase);
            w.put64(p->brkCur);
            w.put64(p->brkLimit);
            w.putBool(p->_exited);
            w.put32(static_cast<u32>(p->_exitStatus));
            w.putBool(p->_death.has_value());
            if (p->_death) {
                const DeathInfo &d = *p->_death;
                w.put32(static_cast<u32>(d.signal));
                w.put8(static_cast<u8>(d.fault));
                w.put64(d.faultAddr);
                w.putStr(d.detail);
                putCap(w, d.faultCap);
                w.putBool(d.faultCapKnown);
                w.putBool(d.deadlock);
            }
        }

        // ---- kernel scalars and tables ----
        w.put32(SEC_KERNEL);
        const KernelCounters &ctr = *kern.stats;
        w.put64(ctr.pressure.reclaimPasses);
        w.put64(ctr.pressure.pagesReclaimed);
        w.put64(ctr.pressure.oomKills);
        w.put64(ctr.pressure.enomemErrors);
        w.put64(ctr.fd.blocks);
        w.put64(ctr.fd.wakes);
        w.put64(ctr.fd.eagainErrors);
        w.put64(ctr.fd.epipeErrors);
        w.put64(ctr.fd.partialWrites);
        w.put64(ctr.fd.selectTimeouts);
        w.put64(ctr.revocation.epochsOpened);
        w.put64(ctr.revocation.epochsClosed);
        w.put64(ctr.revocation.epochsAborted);
        w.put64(ctr.revocation.pagesScanned);
        w.put64(ctr.revocation.pagesSkippedClean);
        w.put64(ctr.revocation.granulesVisited);
        w.put64(ctr.revocation.tagsRevoked);
        w.put64(ctr.revocation.incrementalSlices);
        w.put64(ctr.revocation.syncSweeps);
        w.put64(ctr.revocation.cyclesInEpochs);
        w.put64(kern.switches);
        w.put64(kern.quiescentSeq);
        w.put64(ctr.hardening.panics);
        w.put64(ctr.hardening.deadlocksDetected);
        w.put64(ctr.hardening.deadlocksKilled);
        w.put64(ctr.hardening.machineChecks);
        w.put64(kern.nextEpochId);
        w.put64(kern.nextPid);
        w.put64(kern.nextPrincipal);
        w.put64(kern.nextOtype);
        w.put32(static_cast<u32>(kern.nextShmId));
        w.put64(kern.shmSegments.size());
        for (const auto &[id, seg] : kern.shmSegments) {
            w.put32(static_cast<u32>(id));
            w.put64(seg.size);
            w.put64(seg.frames.size());
            for (const FrameRef &f : seg.frames)
                w.put32(frameIds.at(f.get()));
        }
        w.put64(kern.kqueues.size());
        for (const auto &[pid, events] : kern.kqueues) {
            w.put64(pid);
            w.put64(events.size());
            for (const KEvent &e : events) {
                w.put32(static_cast<u32>(e.ident));
                w.put64(static_cast<u64>(e.filter));
                putCap(w, e.udata);
            }
        }
        w.put64(kern.attached.size());
        for (const auto &[dbg, target] : kern.attached) {
            w.put64(dbg);
            w.put64(target);
        }
        w.put64(kern.revEpochs.size());
        for (const auto &[pid, ep] : kern.revEpochs) {
            w.put64(pid);
            w.putBool(ep.open);
            w.put64(ep.id);
            w.put64(ep.ranges.size());
            for (const auto &[lo, hi] : ep.ranges) {
                w.put64(lo);
                w.put64(hi);
            }
            w.put64(ep.worklist.size());
            for (u64 va : ep.worklist)
                w.put64(va);
            w.putBool(ep.forceFull);
            w.putBool(ep.incremental);
            w.put64(ep.revoked);
            w.put64(ep.cyclesAtOpen);
            w.put64(ep.closedRanges.size());
            for (const auto &[lo, hi] : ep.closedRanges) {
                w.put64(lo);
                w.put64(hi);
            }
            w.put64(ep.closeSeq);
        }
        w.put64(kern.eventCounts.size());
        for (const auto &[pid, count] : kern.eventCounts) {
            w.put64(pid);
            w.put64(count);
        }

        // ---- fault injector ----
        w.put32(SEC_INJECT);
        for (const auto &arm : kern.injector.arms) {
            w.put8(static_cast<u8>(arm.mode));
            w.put64(arm.countdown);
            w.put64(arm.period);
            w.put64(arm.lcg);
            w.put64(arm.seen);
            w.put64(arm.fired);
        }

        // ---- metrics ----
        w.put32(SEC_METRICS);
        w.putBool(kern.mx != nullptr);
        if (kern.mx)
            putMetrics(w, *kern.mx);

        // ---- scheduler ----
        w.put32(SEC_SCHED);
        w.putBool(sch != nullptr);
        if (sch)
            putSched(w, *sch);

        w.put32(SEC_END);

        if (kern.mx)
            kern.mx->recordSnapshot(w.out.size());
        return std::move(w.out);
    }

    static void
    putMetrics(Writer &w, const obs::Metrics &m)
    {
        for (const auto &perAbi : m.sys) {
            for (const obs::SyscallStats &s : perAbi) {
                w.put64(s.calls);
                w.put64(s.errors);
                putHistogram(w, s.cycles);
            }
        }
        for (const auto &perAbi : m.insnMix)
            for (u64 v : perAbi)
                w.put64(v);
        for (const auto &perAbi : m.tlb)
            for (u64 v : perAbi)
                w.put64(v);
        w.put64(m._faults.size());
        for (const obs::FaultRecord &f : m._faults) {
            w.put8(static_cast<u8>(f.cause));
            w.put64(f.pc);
            w.put64(f.addr);
            w.put8(static_cast<u8>(f.abi));
            w.put16(f.sysnum);
            w.put8(static_cast<u8>(f.provenance));
            w.putBool(f.provenanceKnown);
        }
        w.put64(m.faultsDropped);
        for (u64 v : m.faultsByCause)
            w.put64(v);
        w.put64(m._threadSteps.size());
        for (const auto &[key, steps] : m._threadSteps) {
            w.put64(key.first);
            w.put64(key.second);
            w.put64(steps);
        }
        w.put64(m.chk.oracleRuns);
        w.put64(m.chk.oracleViolations);
        w.put64(m.chk.fuzzCases);
        w.put64(m.chk.fuzzDivergences);
        w.put64(m.snp.snapshotsTaken);
        w.put64(m.snp.snapshotBytes);
        w.put64(m.snp.restores);
        w.put64(m.snp.restoreFailures);
        w.put64(m.snp.records);
        w.put64(m.snp.replays);
        w.put64(m.snp.replayDivergences);
        w.put64(m.snp.logEntries);
        w.put64(m.costs.size());
        for (const obs::CostSnapshot &c : m.costs) {
            w.putStr(c.label);
            w.put8(static_cast<u8>(c.abi));
            w.put64(c.instructions);
            w.put64(c.cycles);
            w.put64(c.l1dMisses);
            w.put64(c.l2Misses);
            w.put64(c.codeBytes);
            w.put64(c.itlbMisses);
            w.put64(c.dtlbMisses);
        }
        for (u64 v : m.deriveCounts)
            w.put64(v);
        w.put64(m.provenance.size());
        for (const auto &[key, src] : m.provenance) {
            w.put64(key.first);
            w.put64(key.second);
            w.put8(static_cast<u8>(src));
        }
        w.put64(m.currentSys);
    }

    static void
    putSched(Writer &w, const sched::Scheduler &sch)
    {
        w.put64(sch.vclock);
        w.put64(sch.st.contextSwitches);
        w.put64(sch.st.preemptions);
        w.put64(sch.st.slices);
        w.put64(sch.st.blocksWait4);
        w.put64(sch.st.blocksEvent);
        w.put64(sch.st.blocksSleep);
        w.put64(sch.st.blocksFd);
        w.put64(sch.st.wakes);
        w.put64(sch.st.maxRunQueueDepth);
        w.put64(sch.st.idleAdvances);
        w.put64(sch.st.stepsExecuted);
        w.put64(sch.ctxs.size());
        for (const auto &[key, ctx] : sch.ctxs) {
            w.put64(key.first);
            w.put64(key.second);
            // A mid-slice save serializes the running context as
            // Runnable at the front of the run queue: the restored
            // image resumes it from its current PC.
            auto state = ctx.get() == sch.current
                             ? sched::ExecContext::State::Runnable
                             : ctx->state;
            w.put8(static_cast<u8>(state));
            w.put8(static_cast<u8>(ctx->blockKind));
            w.put64(ctx->blockArg);
            w.putBool(ctx->restartOnWake);
            w.put64(ctx->fdChans.size());
            for (u64 chan : ctx->fdChans)
                w.put64(chan);
            w.putBool(ctx->fdDeadlineArmed);
            w.put64(ctx->fdDeadline);
            w.putBool(ctx->fdTimedOut);
            putResult(w, ctx->last);
            w.put64(ctx->stepLimit);
            w.put64(ctx->readyBaseSteps);
            w.put64(ctx->slices);
            w.put64(ctx->interp ? ctx->interp->_retired : 0);
        }
        std::vector<std::pair<u64, u64>> q;
        if (sch.current)
            q.push_back({sch.current->pid, sch.current->tid});
        for (const sched::ExecContext *c : sch.runq)
            q.push_back({c->pid, c->tid});
        w.put64(q.size());
        for (const auto &[pid, tid] : q) {
            w.put64(pid);
            w.put64(tid);
        }
        w.put64(sch.blocked.size());
        for (const sched::ExecContext *c : sch.blocked) {
            w.put64(c->pid);
            w.put64(c->tid);
        }
        // lastRan may point at an already-erased hosted context:
        // compare addresses only, never dereference.
        bool lastRanKnown = false;
        std::pair<u64, u64> lastKey{0, 0};
        if (sch.lastRan) {
            for (const auto &[key, ctx] : sch.ctxs) {
                if (ctx.get() == sch.lastRan) {
                    lastRanKnown = true;
                    lastKey = key;
                }
            }
        }
        w.putBool(lastRanKnown);
        w.put64(lastKey.first);
        w.put64(lastKey.second);
    }

    // ------------------------------------------------------------------
    // restore
    // ------------------------------------------------------------------

    static void
    getMetrics(Reader &r, obs::Metrics &m)
    {
        for (auto &perAbi : m.sys) {
            for (obs::SyscallStats &s : perAbi) {
                s.calls = r.get64();
                s.errors = r.get64();
                getHistogram(r, s.cycles);
            }
        }
        for (auto &perAbi : m.insnMix)
            for (u64 &v : perAbi)
                v = r.get64();
        for (auto &perAbi : m.tlb)
            for (u64 &v : perAbi)
                v = r.get64();
        m._faults.clear();
        u64 nFaults = r.getCount();
        for (u64 i = 0; i < nFaults; ++i) {
            obs::FaultRecord f;
            f.cause = static_cast<CapFault>(
                r.getEnum(static_cast<u8>(numCapFaults - 1), "fault cause"));
            f.pc = r.get64();
            f.addr = r.get64();
            f.abi = static_cast<Abi>(r.getEnum(2, "fault abi"));
            f.sysnum = r.get16();
            f.provenance = static_cast<DeriveSource>(r.getEnum(
                static_cast<u8>(numDeriveSources - 1), "provenance"));
            f.provenanceKnown = r.getBool();
            m._faults.push_back(f);
        }
        m.faultsDropped = r.get64();
        for (u64 &v : m.faultsByCause)
            v = r.get64();
        m._threadSteps.clear();
        u64 nThreadSteps = r.getCount();
        for (u64 i = 0; i < nThreadSteps; ++i) {
            u64 pid = r.get64();
            u64 tid = r.get64();
            m._threadSteps[{pid, tid}] = r.get64();
        }
        m.chk.oracleRuns = r.get64();
        m.chk.oracleViolations = r.get64();
        m.chk.fuzzCases = r.get64();
        m.chk.fuzzDivergences = r.get64();
        m.snp.snapshotsTaken = r.get64();
        m.snp.snapshotBytes = r.get64();
        m.snp.restores = r.get64();
        m.snp.restoreFailures = r.get64();
        m.snp.records = r.get64();
        m.snp.replays = r.get64();
        m.snp.replayDivergences = r.get64();
        m.snp.logEntries = r.get64();
        m.costs.clear();
        u64 nCosts = r.getCount();
        for (u64 i = 0; i < nCosts; ++i) {
            obs::CostSnapshot c;
            c.label = r.getStr();
            c.abi = static_cast<Abi>(r.getEnum(2, "cost abi"));
            c.instructions = r.get64();
            c.cycles = r.get64();
            c.l1dMisses = r.get64();
            c.l2Misses = r.get64();
            c.codeBytes = r.get64();
            c.itlbMisses = r.get64();
            c.dtlbMisses = r.get64();
            m.costs.push_back(std::move(c));
        }
        for (u64 &v : m.deriveCounts)
            v = r.get64();
        m.provenance.clear();
        u64 nProv = r.getCount();
        for (u64 i = 0; i < nProv; ++i) {
            u64 base = r.get64();
            u64 len = r.get64();
            m.provenance[{base, len}] = static_cast<DeriveSource>(r.getEnum(
                static_cast<u8>(numDeriveSources - 1), "provenance"));
        }
        m.currentSys = r.get64();
    }

    static void
    loadCache(Reader &r, Cache &c)
    {
        u64 lineBytes = r.get64();
        u64 numSets = r.get64();
        u32 ways = r.get32();
        if (lineBytes != c.lineBytes || numSets != c.numSets ||
            ways != c.ways)
            throw ParseError("cache geometry mismatch");
        c.tick = r.get64();
        c._hits = r.get64();
        c._misses = r.get64();
        u64 nWays = r.get64();
        if (nWays != c.sets.size())
            throw ParseError("cache way-array size mismatch");
        for (Cache::Way &way : c.sets) {
            way.tag = r.get64();
            way.valid = r.getBool();
            way.lru = r.get64();
        }
    }

    static void
    loadSched(Kernel &kern, Reader &r)
    {
        auto sch = std::make_unique<sched::Scheduler>(kern);
        sch->vclock = r.get64();
        // Installing the scheduler zeroes the kernel's scheduler
        // counters: stage the image's and store them after.
        SchedStats st;
        st.contextSwitches = r.get64();
        st.preemptions = r.get64();
        st.slices = r.get64();
        st.blocksWait4 = r.get64();
        st.blocksEvent = r.get64();
        st.blocksSleep = r.get64();
        st.blocksFd = r.get64();
        st.wakes = r.get64();
        st.maxRunQueueDepth = r.get64();
        st.idleAdvances = r.get64();
        st.stepsExecuted = r.get64();
        u64 nCtx = r.getCount();
        for (u64 i = 0; i < nCtx; ++i) {
            auto ctx = std::make_unique<sched::ExecContext>();
            ctx->pid = r.get64();
            ctx->tid = r.get64();
            ctx->state = static_cast<sched::ExecContext::State>(
                r.getEnum(3, "context state"));
            ctx->blockKind =
                static_cast<BlockKind>(r.getEnum(4, "block kind"));
            ctx->blockArg = r.get64();
            ctx->restartOnWake = r.getBool();
            u64 nChans = r.getCount();
            for (u64 k = 0; k < nChans; ++k)
                ctx->fdChans.push_back(r.get64());
            ctx->fdDeadlineArmed = r.getBool();
            ctx->fdDeadline = r.get64();
            ctx->fdTimedOut = r.getBool();
            ctx->last = getResult(r);
            ctx->stepLimit = r.get64();
            ctx->readyBaseSteps = r.get64();
            ctx->slices = r.get64();
            u64 retired = r.get64();
            Process *proc = kern.findProcess(ctx->pid);
            if (!proc)
                throw ParseError("context references unknown pid");
            ctx->interp =
                std::make_unique<isa::Interpreter>(*proc, kern.traceSink);
            isa::installDefaultSyscallHook(*ctx->interp, kern);
            ctx->interp->_retired = retired;
            std::pair<u64, u64> key{ctx->pid, ctx->tid};
            if (!sch->ctxs.emplace(key, std::move(ctx)).second)
                throw ParseError("duplicate scheduler context");
        }
        auto lookup = [&](const char *what) -> sched::ExecContext * {
            u64 pid = r.get64();
            u64 tid = r.get64();
            auto it = sch->ctxs.find({pid, tid});
            if (it == sch->ctxs.end())
                throw ParseError(std::string("queue references unknown "
                                             "context: ") +
                                 what);
            return it->second.get();
        };
        u64 nRunq = r.getCount();
        for (u64 i = 0; i < nRunq; ++i)
            sch->runq.push_back(lookup("run queue"));
        u64 nBlocked = r.getCount();
        for (u64 i = 0; i < nBlocked; ++i)
            sch->blocked.push_back(lookup("blocked list"));
        if (r.getBool())
            sch->lastRan = lookup("lastRan");
        else {
            r.get64();
            r.get64();
        }
        kern.installScheduler(std::move(sch));
        kern.stats->sched = st;
    }

    static bool
    restoreImpl(Kernel &kern, const std::vector<u8> &image,
                std::string *error)
    {
        bool mutated = false;
        try {
            Reader r(image);
            char magic[8];
            r.getBytes(magic, sizeof(magic));
            if (std::memcmp(magic, imageMagic, sizeof(magic)) != 0)
                throw ParseError("bad magic");
            if (r.get32() != imageVersion)
                throw ParseError("unsupported image version");

            // From here on the kernel is mutated: any parse failure
            // must fall through to resetToEmpty.
            mutated = true;
            wipe(kern);

            // ---- config + layout constants ----
            r.expect(SEC_CONFIG, "config");
            const u32 layout[] = {numSysNums,
                                  obs::Metrics::maxOps,
                                  numTlbCounters,
                                  numCapFaults,
                                  numDeriveSources,
                                  numSignals,
                                  numCapRegs,
                                  numFaultPoints};
            for (u32 expected : layout) {
                if (r.get32() != expected)
                    throw ParseError("layout-constant mismatch (image "
                                     "from an incompatible build)");
            }
            if (r.get64() != pageSize)
                throw ParseError("page-size mismatch");
            KernelConfig newCfg;
            newCfg.capFormat = static_cast<compress::CapFormat>(
                r.getEnum(1, "cap format"));
            newCfg.swapPolicy =
                static_cast<SwapPolicy>(r.getEnum(1, "swap policy"));
            newCfg.features.largeClcImmediate = r.getBool();
            newCfg.features.asanInstrumentation = r.getBool();
            newCfg.stackSize = r.get64();
            newCfg.aslrSeed = r.get64();
            newCfg.frameCapacity = r.get64();
            newCfg.swapSlotBudget = r.get64();
            newCfg.revokeSliceBudget = r.get64();
            newCfg.timeSliceSteps = r.get64();

            // ---- physical frames ----
            r.expect(SEC_FRAMES, "frames");
            kern.phys.allocated = r.get64();
            kern.phys.failed = r.get64();
            kern.phys.reclaims = r.get64();
            kern.phys.capacity = r.get64();
            u64 nFrames = r.getCount();
            std::vector<FrameRef> frames(nFrames + 1);
            for (u64 i = 1; i <= nFrames; ++i) {
                FrameRef f = mintFrame(kern.phys);
                std::array<u8, pageSize> buf;
                r.getBytes(buf.data(), pageSize);
                // Bytes first, capabilities second: Frame::write clears
                // the tags of every granule it touches.
                f->write(0, buf.data(), pageSize);
                u64 nTags = r.getCount();
                for (u64 t = 0; t < nTags; ++t) {
                    u64 off = r.get64();
                    if (off >= pageSize || off % capSize != 0)
                        throw ParseError("corrupt tag offset");
                    f->writeCap(off, getCap(r));
                }
                frames[i] = std::move(f);
            }

            // ---- swap device ----
            r.expect(SEC_SWAP, "swap");
            kern.swap._policy =
                static_cast<SwapPolicy>(r.getEnum(1, "swap policy"));
            kern.swap.budget = r.get64();
            kern.swap.nextSlot = r.get64();
            kern.swap.swapOuts = r.get64();
            kern.swap.tagsPreserved = r.get64();
            kern.swap.swapOutFailures = r.get64();
            kern.swap.swapInFailures = r.get64();
            kern.swap.sweepScanFailures = r.get64();
            kern.swap.discards = r.get64();
            u64 nSlots = r.getCount();
            for (u64 i = 0; i < nSlots; ++i) {
                u64 id = r.get64();
                SwapDevice::Slot slot;
                r.getBytes(slot.bytes.data(), pageSize);
                slot.tagMeta.clear();
                u64 nTags = r.getCount();
                for (u64 t = 0; t < nTags; ++t) {
                    u64 off = r.get64();
                    slot.tagMeta.push_back({off, getCap(r)});
                }
                slot.refs = r.get64();
                if (!kern.swap.slots.emplace(id, std::move(slot)).second)
                    throw ParseError("duplicate swap slot");
            }

            // ---- vfs ----
            r.expect(SEC_VFS, "vfs");
            u64 nChans = r.getCount();
            std::vector<std::shared_ptr<ByteChannel>> chans(nChans + 1);
            for (u64 i = 1; i <= nChans; ++i) {
                auto ch = std::make_shared<ByteChannel>();
                u64 len = r.getCount();
                for (u64 k = 0; k < len; ++k)
                    ch->buf.push_back(r.get8());
                ch->writerClosed = r.getBool();
                ch->readerClosed = r.getBool();
                ch->readWait = r.get64();
                ch->writeWait = r.get64();
                chans[i] = std::move(ch);
            }
            u64 nNodes = r.getCount();
            std::vector<VNodeRef> nodes(nNodes + 1);
            for (u64 i = 1; i <= nNodes; ++i)
                nodes[i] = std::make_shared<VNode>();
            auto chanById = [&](u32 id) -> std::shared_ptr<ByteChannel> {
                if (id > nChans)
                    throw ParseError("corrupt channel id");
                return id ? chans[id] : nullptr;
            };
            auto nodeById = [&](u32 id) -> VNodeRef {
                if (id == 0 || id > nNodes)
                    throw ParseError("corrupt vnode id");
                return nodes[id];
            };
            for (u64 i = 1; i <= nNodes; ++i) {
                VNode &n = *nodes[i];
                n.kind = static_cast<NodeKind>(r.getEnum(4, "node kind"));
                n.name = r.getStr();
                u64 len = r.getCount();
                n.data.resize(len);
                r.getBytes(n.data.data(), len);
                u64 nKids = r.getCount();
                for (u64 k = 0; k < nKids; ++k) {
                    std::string name = r.getStr();
                    n.children[name] = nodeById(r.get32());
                }
                n.readCh = chanById(r.get32());
                n.writeCh = chanById(r.get32());
            }
            VNodeRef newRoot = nodeById(r.get32());
            if (newRoot->kind != NodeKind::Directory)
                throw ParseError("vfs root is not a directory");
            u64 nFiles = r.getCount();
            std::vector<OpenFileRef> files(nFiles + 1);
            for (u64 i = 1; i <= nFiles; ++i) {
                auto of = std::make_shared<OpenFile>();
                of->node = nodeById(r.get32());
                of->offset = r.get64();
                of->flags = r.get32();
                files[i] = std::move(of);
            }
            u64 maxWaitToken = r.get64();
            kern.fs.root = newRoot;

            // ---- processes ----
            r.expect(SEC_PROCS, "processes");
            u64 nProcs = r.getCount();
            for (u64 i = 0; i < nProcs; ++i) {
                u64 pid = r.get64();
                u64 ppid = r.get64();
                Abi abi = static_cast<Abi>(r.getEnum(2, "abi"));
                std::string name = r.getStr();
                MachineFeatures feat;
                feat.largeClcImmediate = r.getBool();
                feat.asanInstrumentation = r.getBool();

                u64 principal = r.get64();
                u64 slide = r.get64();
                auto fmt = static_cast<compress::CapFormat>(
                    r.getEnum(1, "cap format"));
                Capability rootCap = getCap(r);
                u64 useClock = r.get64();
                auto walkFault = static_cast<CapFault>(r.getEnum(
                    static_cast<u8>(numCapFaults - 1), "walk fault"));
                u64 sweepEpoch = r.get64();
                auto as = std::make_unique<AddressSpace>(
                    kern.phys, kern.swap, principal, fmt, 0);
                as->aslrSlide = slide;
                as->root = rootCap;
                as->useClock = useClock;
                as->walkFault = walkFault;
                as->activeSweepEpoch = sweepEpoch;
                u64 nRedirty = r.getCount();
                for (u64 k = 0; k < nRedirty; ++k)
                    as->redirtied.push_back(r.get64());
                u64 nMaps = r.getCount();
                u64 mappedEnd = 0;
                u64 mappedPages = 0;
                for (u64 k = 0; k < nMaps; ++k) {
                    Mapping m;
                    m.start = r.get64();
                    m.len = r.get64();
                    m.prot = r.get32();
                    m.kind =
                        static_cast<MappingKind>(r.getEnum(9, "map kind"));
                    m.shared = r.getBool();
                    m.name = r.getStr();
                    m.backingOffset = r.get64();
                    // Mappings are saved VA-ascending, page-aligned and
                    // disjoint; each region's PTE array spans it exactly.
                    // Every mapped page needs its own page record later
                    // in the image, which bounds the arrays allocated.
                    if (m.len == 0 || ((m.start | m.len) & pageMask) != 0 ||
                        m.start < mappedEnd ||
                        m.len > AddressSpace::userTop - m.start)
                        throw ParseError("corrupt mapping bounds");
                    mappedEnd = m.end();
                    mappedPages += m.len / pageSize;
                    if (mappedPages > r.remaining() / pageRecordBytes)
                        throw ParseError("corrupt mapping bounds");
                    AddressSpace::Region &region = as->regions[m.start];
                    region.ptes.resize(m.len / pageSize);
                    region.map = std::move(m);
                }
                // Every mapped page has exactly one record, VA-ascending
                // as saved: an unmapped, duplicated or missing page would
                // leave a PTE the page table cannot hold.
                u64 nPages = r.getCount();
                u64 prevVa = 0;
                for (u64 k = 0; k < nPages; ++k) {
                    u64 va = r.get64();
                    if (k != 0 && va <= prevVa)
                        throw ParseError("duplicate or out-of-order page "
                                         "record");
                    prevVa = va;
                    AddressSpace::Region *region = as->findRegion(va);
                    if (!region || (va & pageMask) != 0)
                        throw ParseError("page record outside every "
                                         "mapping");
                    u64 idx = (va - region->map.start) / pageSize;
                    u32 frameId = r.get32();
                    if (frameId > nFrames)
                        throw ParseError("corrupt frame id");
                    AddressSpace::Pte &pte = region->ptes[idx];
                    pte.frame = frameId ? frames[frameId] : nullptr;
                    pte.prot = r.get32();
                    pte.cow = r.getBool();
                    pte.shared = r.getBool();
                    pte.swapped = r.getBool();
                    pte.swapSlot = r.get64();
                    pte.lastUse = r.get64();
                    pte.capDirty = r.getBool();
                    pte.sweptEpoch = r.get64();
                    pte.queuedEpoch = r.get64();
                    if (pte.frame || pte.swapped)
                        region->noteContent(idx);
                }
                if (nPages != mappedPages)
                    throw ParseError("mapping page count does not match "
                                     "its page records");

                auto proc = std::make_unique<Process>(
                    kern, pid, ppid, abi, name, std::move(as), feat);
                getRegs(r, proc->_regs);
                CostModel &cm = proc->_cost;
                cm._instructions = r.get64();
                cm._cycles = r.get64();
                cm._codeBytes = r.get64();
                cm._itlbAccesses = r.get64();
                cm._itlbMisses = r.get64();
                cm._dtlbAccesses = r.get64();
                cm._dtlbMisses = r.get64();
                cm.pc = r.get64();
                cm.codeFootprint = r.get64();
                loadCache(r, cm.cacheHier.l1i);
                loadCache(r, cm.cacheHier.l1d);
                loadCache(r, cm.cacheHier.l2);

                u64 nFds = r.getCount();
                for (u64 k = 0; k < nFds; ++k) {
                    u32 fileId = r.get32();
                    if (fileId > nFiles)
                        throw ParseError("corrupt open-file id");
                    proc->fds.push_back(fileId ? files[fileId] : nullptr);
                }
                u64 nThreads = r.getCount();
                for (u64 k = 0; k < nThreads; ++k) {
                    ThreadRecord t;
                    t.tid = r.get64();
                    getRegs(r, t.saved);
                    t.stackCap = getCap(r);
                    t.live = r.getBool();
                    proc->threads.push_back(std::move(t));
                }
                proc->curThread = r.get64();
                proc->nextTid = r.get64();
                // curThread is a tid, not an index: the main thread is
                // tid 0 and only spawned threads get records, so the
                // only sound bound is the allocator's high-water mark.
                if (proc->curThread >= proc->nextTid)
                    throw ParseError("corrupt current-thread id");
                for (SigAction &a : proc->sigActions) {
                    a.kind = static_cast<SigAction::Kind>(
                        r.getEnum(2, "sigaction kind"));
                    a.handlerId = r.get64();
                }
                proc->sigPending = r.get64();
                proc->sigMask = r.get64();
                proc->stackCap = getCap(r);
                proc->argvCap = getCap(r);
                proc->envvCap = getCap(r);
                proc->auxvCap = getCap(r);
                proc->trampolineCap = getCap(r);
                proc->argc = static_cast<int>(r.get32());
                proc->envc = static_cast<int>(r.get32());
                proc->heapHint = r.get64();
                proc->brkBase = r.get64();
                proc->brkCur = r.get64();
                proc->brkLimit = r.get64();
                proc->_exited = r.getBool();
                proc->_exitStatus = static_cast<int>(r.get32());
                if (r.getBool()) {
                    DeathInfo d;
                    d.signal = static_cast<int>(r.get32());
                    d.fault = static_cast<CapFault>(r.getEnum(
                        static_cast<u8>(numCapFaults - 1), "death fault"));
                    d.faultAddr = r.get64();
                    d.detail = r.getStr();
                    d.faultCap = getCap(r);
                    d.faultCapKnown = r.getBool();
                    d.deadlock = r.getBool();
                    proc->_death = std::move(d);
                }
                if (!kern.procs.emplace(pid, std::move(proc)).second)
                    throw ParseError("duplicate pid");
            }

            // ---- kernel scalars and tables ----
            r.expect(SEC_KERNEL, "kernel");
            KernelCounters &ctr = *kern.stats;
            ctr.pressure.reclaimPasses = r.get64();
            ctr.pressure.pagesReclaimed = r.get64();
            ctr.pressure.oomKills = r.get64();
            ctr.pressure.enomemErrors = r.get64();
            ctr.fd.blocks = r.get64();
            ctr.fd.wakes = r.get64();
            ctr.fd.eagainErrors = r.get64();
            ctr.fd.epipeErrors = r.get64();
            ctr.fd.partialWrites = r.get64();
            ctr.fd.selectTimeouts = r.get64();
            ctr.revocation.epochsOpened = r.get64();
            ctr.revocation.epochsClosed = r.get64();
            ctr.revocation.epochsAborted = r.get64();
            ctr.revocation.pagesScanned = r.get64();
            ctr.revocation.pagesSkippedClean = r.get64();
            ctr.revocation.granulesVisited = r.get64();
            ctr.revocation.tagsRevoked = r.get64();
            ctr.revocation.incrementalSlices = r.get64();
            ctr.revocation.syncSweeps = r.get64();
            ctr.revocation.cyclesInEpochs = r.get64();
            kern.switches = r.get64();
            kern.quiescentSeq = r.get64();
            ctr.hardening.panics = r.get64();
            ctr.hardening.deadlocksDetected = r.get64();
            ctr.hardening.deadlocksKilled = r.get64();
            ctr.hardening.machineChecks = r.get64();
            kern.nextEpochId = r.get64();
            kern.nextPid = r.get64();
            kern.nextPrincipal = r.get64();
            kern.nextOtype = r.get64();
            kern.nextShmId = static_cast<int>(r.get32());
            u64 nShm = r.getCount();
            for (u64 i = 0; i < nShm; ++i) {
                int id = static_cast<int>(r.get32());
                Kernel::ShmSegment seg;
                seg.size = r.get64();
                u64 nSegFrames = r.getCount();
                for (u64 k = 0; k < nSegFrames; ++k) {
                    u32 frameId = r.get32();
                    if (frameId == 0 || frameId > nFrames)
                        throw ParseError("corrupt shm frame id");
                    seg.frames.push_back(frames[frameId]);
                }
                kern.shmSegments[id] = std::move(seg);
            }
            u64 nKq = r.getCount();
            for (u64 i = 0; i < nKq; ++i) {
                u64 pid = r.get64();
                std::vector<KEvent> events;
                u64 nEv = r.getCount();
                for (u64 k = 0; k < nEv; ++k) {
                    KEvent e;
                    e.ident = static_cast<int>(r.get32());
                    e.filter =
                        static_cast<KFilter>(static_cast<s64>(r.get64()));
                    e.udata = getCap(r);
                    events.push_back(e);
                }
                kern.kqueues[pid] = std::move(events);
            }
            u64 nAttached = r.getCount();
            for (u64 i = 0; i < nAttached; ++i) {
                u64 dbg = r.get64();
                u64 target = r.get64();
                kern.attached.push_back({dbg, target});
            }
            u64 nEpochs = r.getCount();
            for (u64 i = 0; i < nEpochs; ++i) {
                u64 pid = r.get64();
                RevocationEpoch ep;
                ep.open = r.getBool();
                ep.id = r.get64();
                u64 nRanges = r.getCount();
                for (u64 k = 0; k < nRanges; ++k) {
                    u64 lo = r.get64();
                    u64 hi = r.get64();
                    ep.ranges.push_back({lo, hi});
                }
                u64 nWork = r.getCount();
                for (u64 k = 0; k < nWork; ++k)
                    ep.worklist.push_back(r.get64());
                ep.forceFull = r.getBool();
                ep.incremental = r.getBool();
                ep.revoked = r.get64();
                ep.cyclesAtOpen = r.get64();
                u64 nClosed = r.getCount();
                for (u64 k = 0; k < nClosed; ++k) {
                    u64 lo = r.get64();
                    u64 hi = r.get64();
                    ep.closedRanges.push_back({lo, hi});
                }
                ep.closeSeq = r.get64();
                kern.revEpochs[pid] = std::move(ep);
            }
            u64 nEvents = r.getCount();
            for (u64 i = 0; i < nEvents; ++i) {
                u64 pid = r.get64();
                kern.eventCounts[pid] = r.get64();
            }

            // ---- fault injector (arms only; the tap is environment) ----
            r.expect(SEC_INJECT, "injector");
            for (auto &arm : kern.injector.arms) {
                arm.mode = static_cast<FaultInjector::Mode>(
                    r.getEnum(2, "inject mode"));
                arm.countdown = r.get64();
                arm.period = r.get64();
                arm.lcg = r.get64();
                arm.seen = r.get64();
                arm.fired = r.get64();
            }

            // ---- metrics ----
            r.expect(SEC_METRICS, "metrics");
            // The image's registry state (or none) replaces the
            // attached registry's, which the commit below re-attaches
            // to this kernel alone.
            if (kern.mx)
                kern.mx->reset();
            if (r.getBool()) {
                if (kern.mx)
                    getMetrics(r, *kern.mx);
                else {
                    // No registry attached here: parse (validating the
                    // section) into a scratch registry and discard.
                    auto scratch = std::make_unique<obs::Metrics>();
                    getMetrics(r, *scratch);
                }
            }

            // ---- scheduler ----
            r.expect(SEC_SCHED, "scheduler");
            if (r.getBool())
                loadSched(kern, r);

            r.expect(SEC_END, "end");

            // Commit: config applies only once the whole image parsed.
            kern.cfg = newCfg;
            Vfs::reserveWaitIds(maxWaitToken + 1);
            // Re-wire every restored process's fresh MemAccess into
            // the registry's TLB counter blocks, and the registry to
            // the restored counters.
            kern.setMetrics(kern.mx);
            kern.kernelReady = true;
            if (kern.mx)
                kern.mx->recordRestore(true);
            return true;
        } catch (const ParseError &e) {
            if (mutated) {
                resetToEmpty(kern);
                if (kern.mx)
                    kern.mx->reset();
                kern.setMetrics(kern.mx);
            }
            if (error)
                *error = "restore failed: " + e.msg;
            if (kern.mx)
                kern.mx->recordRestore(false);
            return false;
        }
    }

    /** Tear down all restorable state, leaving environment (trace sink,
     *  metrics pointer, check hook, injector tap, reclaim hook) wired. */
    static void
    wipe(Kernel &kern)
    {
        // Suppress FD wake edges: closeAllFds below fires channel
        // edges, and the scheduler is about to be destroyed.
        kern.kernelReady = false;
        for (auto &[pid, p] : kern.procs) {
            (void)pid;
            p->closeAllFds();
        }
        // The scheduler's contexts hold Process references: destroy
        // them before the processes.
        kern.installScheduler(nullptr);
        kern.procs.clear();
        kern.shmSegments.clear();
        kern.kqueues.clear();
        kern.attached.clear();
        kern.revEpochs.clear();
        kern.eventCounts.clear();
        kern.fs = Vfs();
        kern.swap.slots.clear();
    }

    /** Restore-abort landing pad: an empty, usable kernel matching what
     *  the Kernel constructor builds (modulo environment, which is
     *  preserved). */
    static void
    resetToEmpty(Kernel &kern)
    {
        wipe(kern);
        *kern.stats = {};
        kern.lastDispatchPid = 0;
        kern.lastDispatchCode = ~u64{0};
        kern.panicPlant = 0;
        kern.panicInProgress = false;
        kern.nextEpochId = 0;
        kern.quiescentSeq = 0;
        kern.nextPid = 1;
        kern.nextPrincipal = 1;
        kern.nextOtype = 1;
        kern.nextShmId = 1;
        kern.switches = 0;
        kern.phys.allocated = 0;
        kern.phys.failed = 0;
        kern.phys.reclaims = 0;
        kern.phys.capacity = kern.cfg.frameCapacity;
        kern.swap._policy = kern.cfg.swapPolicy;
        kern.swap.budget = kern.cfg.swapSlotBudget;
        kern.swap.nextSlot = 0;
        kern.swap.swapOuts = 0;
        kern.swap.tagsPreserved = 0;
        kern.swap.swapOutFailures = 0;
        kern.swap.swapInFailures = 0;
        kern.swap.sweepScanFailures = 0;
        kern.swap.discards = 0;
        kern.injector.arms = {};
        // Rebuild the constructor's VFS baseline.
        kern.fs.mkdir("/tmp");
        kern.fs.mkdir("/etc");
        kern.fs.mkdir("/home");
        if (auto motd = kern.fs.createFile("/etc/motd")) {
            const char msg[] = "MiniBSD (CheriABI reproduction kernel)\n";
            motd->data.assign(msg, msg + sizeof(msg) - 1);
        }
        kern.kernelReady = true;
    }

    static void
    setReady(Kernel &kern, bool ready)
    {
        kern.kernelReady = ready;
    }
};

std::vector<u8>
save(Kernel &kern, std::string *error)
{
    return Access::saveImpl(kern, error);
}

bool
restore(Kernel &kern, const std::vector<u8> &image, std::string *error)
{
    return Access::restoreImpl(kern, image, error);
}

void
setKernelReadyForTest(Kernel &kern, bool ready)
{
    Access::setReady(kern, ready);
}

void
installPanicSnapshotHook(Kernel &kern)
{
    kern.setPanicSnapshotHook([](Kernel &k) {
        // save() refuses unsnapshottable state by returning an empty
        // image with an error string — exactly the degraded-capture
        // behavior the panic path wants, so the error is dropped.
        std::string err;
        return save(k, &err);
    });
}

} // namespace cheri::snap
