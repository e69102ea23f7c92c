#include "os/kernel.h"

#include "obs/json.h"
#include "obs/metrics.h"
#include "os/coredump.h"
#include "os/sched/sched.h"

#include <algorithm>
#include <cstring>

namespace cheri
{

u32
protToPerms(u32 prot)
{
    u32 perms = PERM_GLOBAL;
    if (prot & PROT_READ)
        perms |= PERM_LOAD | PERM_LOAD_CAP;
    if (prot & PROT_WRITE)
        perms |= PERM_STORE | PERM_STORE_CAP | PERM_STORE_LOCAL_CAP;
    if (prot & PROT_EXEC)
        perms |= PERM_EXECUTE;
    return perms;
}

Kernel::Kernel(KernelConfig cfg)
    : cfg(cfg), swap(cfg.swapPolicy)
{
    phys.setCapacity(cfg.frameCapacity);
    swap.setSlotBudget(cfg.swapSlotBudget);
    phys.setFaultInjector(&injector);
    swap.setFaultInjector(&injector);
    // The memory layer reports up through MemEvents: allocation
    // pressure (reclaim), fired injector decisions, and detected
    // corruption (machine checks).
    phys.setMemEvents(this);
    swap.setMemEvents(this);
    injector.setMemEvents(this);
    recorder.setDepth(cfg.flightRecorderDepth);
    initVfs();
    sch = std::make_unique<sched::Scheduler>(*this);
    // Registered last, after every subsystem is whole: this kernel now
    // owns CHERI_KASSERT failures for its lifetime (innermost wins).
    panic::pushSink(this);
}

Kernel::~Kernel()
{
    panic::popSink(this);
}

void
Kernel::initVfs()
{
    fs.mkdir("/tmp");
    fs.mkdir("/etc");
    fs.mkdir("/home");
    auto motd = fs.createFile("/etc/motd");
    const char msg[] = "MiniBSD (CheriABI reproduction kernel)\n";
    motd->data.assign(msg, msg + sizeof(msg) - 1);
}

u64
Kernel::reclaim(u64 wanted, const void *requester)
{
    // LRU pass over every live process.  The requester's own space is
    // fair game for eviction — pages pinned by its in-flight fault are
    // not evictable — but exempt from OOM kill below: its page table is
    // being walked right now.
    u64 freed = 0;
    for (auto &[pid, p] : procs) {
        if (freed >= wanted)
            break;
        if (p->exited())
            continue;
        freed += p->as().swapOutResident(wanted - freed);
    }
    ++stats->pressure.reclaimPasses;
    stats->pressure.pagesReclaimed += freed;
    if (freed >= wanted)
        return freed;
    // Eviction could not keep up (swap full, or everything left is
    // shared/pinned): kill the largest process and take its memory.
    Process *victim = nullptr;
    u64 victim_size = 0;
    for (auto &[pid, p] : procs) {
        if (p->exited() || &p->as() == requester)
            continue;
        u64 size = p->as().residentPages() + p->as().swappedPages();
        if (size > victim_size) {
            victim_size = size;
            victim = p.get();
        }
    }
    if (victim) {
        // Count only frames the kill actually returned: the victim's
        // swapped pages free slots (not frames), and COW/shared frames
        // survive through their other references.
        u64 before = phys.liveFrames();
        oomKill(*victim);
        freed += before - phys.liveFrames();
    }
    return freed;
}

void
Kernel::oomKill(Process &victim)
{
    ++stats->pressure.oomKills;
    if (mx) {
        mx->recordFault(CapFault::MemoryExhausted,
                        victim.regs().pcc.address(), 0, nullptr,
                        victim.abi());
    }
    DeathInfo di;
    di.signal = SIG_KILL;
    di.fault = CapFault::MemoryExhausted;
    di.detail = "out of memory (oom-killed)";
    endProcess(victim, di);
}

SysResult
Kernel::failNoMem()
{
    ++stats->pressure.enomemErrors;
    return SysResult::fail(E_NOMEM);
}

std::unique_ptr<AddressSpace>
Kernel::freshAddressSpace(u64 pid)
{
    return std::make_unique<AddressSpace>(
        phys, swap, newPrincipal(), cfg.capFormat,
        cfg.aslrSeed ? cfg.aslrSeed + pid : 0);
}

Process *
Kernel::addProcess(u64 pid, u64 ppid, Abi abi, const std::string &name,
                   std::unique_ptr<AddressSpace> as)
{
    auto &p = procs[pid] = std::make_unique<Process>(
        *this, pid, ppid, abi, name, std::move(as), cfg.features);
    bindTlbCounters(*p);
    return p.get();
}

void
Kernel::bindTlbCounters(Process &proc)
{
    proc.mem().setCounterBlock(mx ? mx->tlbCounterBlock(proc.abi())
                                  : nullptr);
}

Process *
Kernel::spawn(Abi abi, const std::string &name)
{
    u64 pid = nextPid++;
    return addProcess(pid, 0, abi, name, freshAddressSpace(pid));
}

void
Kernel::setMetrics(obs::Metrics *m)
{
    mx = m;
    if (mx)
        mx->attach(stats);
    for (auto &[pid, p] : procs)
        bindTlbCounters(*p);
}

Process *
Kernel::fork(Process &parent)
{
    // Admission check before duplicating anything: forkCopy itself only
    // shares frames (COW), but a child that cannot fault in a single
    // page is doomed, so fail the fork up front with ENOMEM instead.
    if (!phys.canAlloc(1, &parent.as())) {
        failNoMem();
        return nullptr;
    }
    u64 pid = nextPid++;
    Process *c = addProcess(pid, parent.pid(), parent.abi(), parent.name(),
                            parent.as().forkCopy(newPrincipal()));
    // The child starts as an exact register-state copy: capabilities in
    // registers survive fork architecturally (tags included).
    c->regs() = parent.regs();
    parent.cloneFdsInto(*c);
    c->sigActions = parent.sigActions;
    c->handlers = parent.handlers;
    c->image = parent.image;
    c->stackCap = parent.stackCap;
    c->argvCap = parent.argvCap;
    c->envvCap = parent.envvCap;
    c->auxvCap = parent.auxvCap;
    c->trampolineCap = parent.trampolineCap;
    c->argc = parent.argc;
    c->envc = parent.envc;
    // Cost: trap + pmap duplication work proportional to the number of
    // mappings, plus saving the (ABI-width) register file for the child.
    chargeSyscall(parent, 0);
    u64 n_mappings = 0;
    parent.as().forEachMapping([&](const Mapping &) { ++n_mappings; });
    parent.cost().alu(40 * n_mappings);
    parent.cost().contextSwitch();
    // A fork from an interpreted guest the scheduler is running admits
    // the child to the run queue (the scheduler fixes up its PC and
    // return registers, which were copied pre-writeback).
    sch->onFork(*c);
    return c;
}

Process *
Kernel::findProcess(u64 pid)
{
    auto it = procs.find(pid);
    return it == procs.end() ? nullptr : it->second.get();
}

void
Kernel::forEachShmFrame(
    const std::function<void(const FrameRef &)> &fn) const
{
    for (const auto &[id, seg] : shmSegments)
        for (const auto &frame : seg.frames)
            fn(frame);
}

SysResult
Kernel::wait4(Process &parent, u64 pid)
{
    bool live_children = false;
    for (auto it = procs.begin(); it != procs.end(); ++it) {
        Process &p = *it->second;
        if (p.ppid() != parent.pid())
            continue;
        if (pid != 0 && p.pid() != pid)
            continue;
        if (!p.exited()) {
            live_children = true;
            continue;
        }
        u64 dead = p.pid();
        // A watchdog-killed child still gets reaped (the zombie is
        // gone), but the reap reports E_DEADLK so the parent learns the
        // wait-for cycle was broken on its behalf.
        bool deadlocked = p.death() && p.death()->deadlock;
        sch->onProcessReaped(dead);
        procs.erase(it);
        return deadlocked ? SysResult::fail(E_DEADLK)
                          : SysResult::ok(dead);
    }
    // No zombie yet, but the wait could still succeed: when the caller
    // is an interpreted context under the scheduler, truly block until
    // a child's exit wakes us (the syscall restarts and reaps then).
    // Hosted and host-driven callers keep the non-blocking E_CHILD
    // poll.
    if (live_children &&
        sch->blockCurrent(parent, sched::BlockKind::Wait4, pid, true))
        return SysResult::fail(E_INTR);
    return SysResult::fail(E_CHILD);
}

void
Kernel::faultProcess(Process &proc, const DeathInfo &info, bool recorded)
{
    // A capability fault becomes SIG_PROT; a handler may catch it,
    // otherwise the process dies with the fault recorded.
    if (mx && info.fault != CapFault::None && !recorded) {
        mx->recordFault(info.fault, proc.regs().pcc.address(),
                        info.faultAddr,
                        info.faultCapKnown ? &info.faultCap : nullptr,
                        proc.abi());
    }
    DeathInfo di = info;
    if (di.signal == 0)
        di.signal = SIG_PROT;
    if (proc.sigaction(di.signal).kind == SigAction::Kind::Handler) {
        proc.raiseSignal(di.signal);
        deliverSignals(proc);
        return;
    }
    endProcess(proc, di, 0, true);
}

void
Kernel::endProcess(Process &proc, const std::optional<DeathInfo> &death,
                   int status, bool core)
{
    // kill(2) of a zombie changes nothing: the first death stands.
    if (proc.exited())
        return;
    if (death)
        proc.die(*death);
    else
        proc.exit(status);
    // An open revocation epoch never closes: nothing was proven revoked.
    abortRevocationEpoch(proc);
    // Close the file table now, not at reap, so blocked peers wake at
    // once: readers to EOF, writers to EPIPE.
    proc.closeAllFds();
    // Post-mortem: the capability register file and memory map (paper
    // section 4), written before the release below empties the map.
    if (core) {
        std::string core_path = "/cores/" + proc.name() + "." +
                                std::to_string(proc.pid()) + ".core";
        if (VNodeRef node = fs.createFile(core_path))
            writeCoreFile(proc, *node);
    }
    // A zombie keeps only its pid and exit status for wait4: frames and
    // swap slots go back to the pools now, not at the reap.
    proc.as().releaseAll();
    if (Process *parent = findProcess(proc.ppid()))
        parent->raiseSignal(SIG_CHLD);
    // Retire its contexts and wake a parent parked in wait4.
    sch->onProcessDead(proc);
}

void
Kernel::contextSwitchTo(Process &proc)
{
    ++switches;
    proc.cost().contextSwitch();
}

void
Kernel::chargeSyscall(Process &proc, u64 n_ptr_args)
{
    // Every syscall entry — dispatched or direct — is guest activity
    // on the quiescent clock; see quiescentCount().
    ++quiescentSeq;
    proc.cost().syscall(n_ptr_args);
}

int
Kernel::checkUserPtr(Process &proc, const UserPtr &ptr, u64 len, u32 perms)
{
    if (proc.abi() == Abi::CheriAbi) {
        // Figure 3: the kernel acts only through the user's capability.
        // The non-capability path is an error for CheriABI processes.
        if (!ptr.isCap)
            return E_PROT;
        CapCheck chk = ptr.cap.checkAccess(ptr.addr(), len, perms);
        if (chk.has_value())
            return E_PROT;
        proc.cost().capManip(2); // tag/bounds validation
        return E_OK;
    }
    if (proc.abi() == Abi::Hybrid && ptr.isCap) {
        // A __capability-annotated argument from a hybrid process is
        // honored exactly as under CheriABI.
        CapCheck chk = ptr.cap.checkAccess(ptr.addr(), len, perms);
        if (chk.has_value())
            return E_PROT;
        proc.cost().capManip(2);
        return E_OK;
    }
    // Legacy path: the kernel constructs authority from the process's
    // address-space capability (expensive, per the cost model).
    CapCheck chk = proc.ddc().checkAccess(ptr.addr(), len, perms);
    if (chk.has_value())
        return E_FAULT;
    return E_OK;
}

int
Kernel::copyin(Process &proc, const UserPtr &src, void *dst, u64 len)
{
    if (len == 0)
        return E_OK;
    int err = checkUserPtr(proc, src, len, PERM_LOAD);
    if (err)
        return err;
    proc.cost().copyLoop(src.addr(), 0xC000000000 + src.addr(), len);
    CapCheck fault = proc.mem().read(src.addr(), dst, len);
    return fault.has_value() ? E_FAULT : E_OK;
}

int
Kernel::copyout(Process &proc, const void *src, const UserPtr &dst,
                u64 len)
{
    if (len == 0)
        return E_OK;
    int err = checkUserPtr(proc, dst, len, PERM_STORE);
    if (err)
        return err;
    proc.cost().copyLoop(0xC000000000 + dst.addr(), dst.addr(), len);
    // Byte writes clear tags on every granule they touch: ordinary
    // copyout can never leak a tagged kernel capability to userspace.
    CapCheck fault = proc.mem().write(dst.addr(), src, len);
    return fault.has_value() ? E_FAULT : E_OK;
}

int
Kernel::copyinstr(Process &proc, const UserPtr &src, std::string *out,
                  u64 max)
{
    out->clear();
    if (max == 0)
        return E_RANGE;
    u64 addr = src.addr();
    // Validate the pointer once and derive the scan window from its
    // authority, instead of re-checking (and re-walking) per byte: a
    // NUL inside the window succeeds no matter what lies beyond it.
    int err = checkUserPtr(proc, src, 1, PERM_LOAD);
    if (err)
        return err;
    const bool cap_authority =
        proc.abi() == Abi::CheriAbi ||
        (proc.abi() == Abi::Hybrid && src.isCap);
    u64 limit = cap_authority ? src.cap.top() : proc.ddc().top();
    u64 window = std::min(max, limit - addr);
    u64 scanned = 0;
    MemAccess::StrRead r =
        proc.mem().readString(addr, out, window, &scanned);
    // Modelled cost: the kernel's strlen-style loop still touches every
    // byte it examined, one load each.
    for (u64 i = 0; i < scanned; ++i)
        proc.cost().load(addr + i, 1);
    switch (r) {
      case MemAccess::StrRead::Ok:
        return E_OK;
      case MemAccess::StrRead::Fault:
        return E_FAULT;
      case MemAccess::StrRead::TooLong:
        break;
    }
    if (window < max) {
        // The string ran off the end of the caller's authority before
        // hitting max: the per-byte path would have faulted on the
        // check at the clamp point.
        return cap_authority ? E_PROT : E_FAULT;
    }
    return E_RANGE;
}

int
Kernel::copyincap(Process &proc, const UserPtr &src, Capability *out)
{
    if (proc.abi() == Abi::CheriAbi) {
        int err = checkUserPtr(proc, src, capSize,
                               PERM_LOAD | PERM_LOAD_CAP);
        if (err)
            return err;
        if (CapCheck f = proc.mem().readCap(src.addr(), *out))
            return *f == CapFault::AlignmentViolation ? E_INVAL : E_FAULT;
        proc.cost().load(src.addr(), capSize);
        // The kernel now holds a user capability in its own structures.
        if (traceSink && out->tag())
            traceSink->derive(DeriveSource::Kern, *out);
        return E_OK;
    }
    // Legacy ABI: the "pointer" in memory is an 8-byte integer.
    u64 addr = 0;
    int err = copyin(proc, src, &addr, 8);
    if (err)
        return err;
    *out = Capability::fromAddress(addr);
    return E_OK;
}

int
Kernel::copyoutcap(Process &proc, const Capability &cap,
                   const UserPtr &dst)
{
    if (proc.abi() == Abi::CheriAbi) {
        int err = checkUserPtr(proc, dst, capSize,
                               PERM_STORE | PERM_STORE_CAP);
        if (err)
            return err;
        CapCheck fault = proc.mem().writeCap(dst.addr(), cap);
        if (fault.has_value())
            return E_FAULT;
        proc.cost().store(dst.addr(), capSize);
        return E_OK;
    }
    u64 addr = cap.address();
    return copyout(proc, &addr, dst, 8);
}

SysResult
Kernel::sysGetpid(Process &proc)
{
    chargeSyscall(proc, 0);
    return SysResult::ok(proc.pid());
}

SysResult
Kernel::sysGetppid(Process &proc)
{
    chargeSyscall(proc, 0);
    return SysResult::ok(proc.ppid());
}

SysResult
Kernel::sysSbrk(Process &proc, s64 delta)
{
    chargeSyscall(proc, 0);
    if (proc.abi() == Abi::CheriAbi) {
        // Excluded as a matter of principle (paper section 4): sbrk's
        // contiguous-heap contract cannot mint sound capabilities.
        return SysResult::fail(E_NOSYS);
    }
    // Legacy mips64 keeps a classic brk, backed by a fixed reservation.
    if (proc.brkBase == 0) {
        if (!phys.canAlloc(1, &proc.as()))
            return failNoMem();
        u64 reserve = 16 * 1024 * 1024;
        u64 base = proc.as().map(0, reserve, PROT_READ | PROT_WRITE,
                                 MappingKind::Heap, false, false, "brk");
        if (base == 0)
            return failNoMem();
        proc.brkBase = base;
        proc.brkCur = base;
        proc.brkLimit = base + reserve;
    }
    u64 old_brk = proc.brkCur;
    if (delta > 0 &&
        proc.brkCur + static_cast<u64>(delta) > proc.brkLimit) {
        return failNoMem();
    }
    // Growing the break promises demand-zero pages the process will
    // touch next; probe (and if needed reclaim) one frame now so the
    // failure is a clean ENOMEM here rather than a fault at first use.
    if (delta > 0 && !phys.canAlloc(1, &proc.as()))
        return failNoMem();
    if (delta < 0 &&
        static_cast<u64>(-delta) > proc.brkCur - proc.brkBase) {
        return SysResult::fail(E_INVAL);
    }
    proc.brkCur += static_cast<u64>(delta);
    return SysResult::ok(old_brk);
}

SysResult
Kernel::sysOtypeAlloc(Process &proc, u64 count, Capability *out)
{
    chargeSyscall(proc, 0);
    if (count == 0 || nextOtype + count > otypeMax)
        return SysResult::fail(E_NOMEM);
    u64 base = nextOtype;
    nextOtype += count;
    // The sealing authority is a capability over the otype range with
    // only the sealing permissions: it cannot touch memory at all.
    Capability root = Capability::root(cfg.capFormat);
    Result<Capability> bounded = root.setAddress(base).setBounds(count);
    if (!bounded.ok())
        return SysResult::fail(E_NOMEM);
    Result<Capability> perms =
        bounded.value().andPerms(PERM_GLOBAL | PERM_SEAL | PERM_UNSEAL);
    if (!perms.ok())
        return SysResult::fail(E_NOMEM);
    *out = perms.value();
    proc.cost().capManip(3);
    if (traceSink)
        traceSink->derive(DeriveSource::Syscall, *out);
    return SysResult::ok(base);
}

void
Kernel::fireFdEdge(u64 chan)
{
    // While a snapshot restore is rebuilding kernel state the scheduler
    // may be half-built (or already populated with restored contexts
    // whose wake accounting must not move): teardown paths that close
    // FDs — restore-abort's closeAllFds in particular — must not fire
    // wake edges until the kernel is whole again.
    if (!kernelReady || chan == 0)
        return;
    u64 woken = sch->onFdWake(chan);
    if (!woken)
        return;
    recorder.record(panic::EventKind::WakeEdge, chan, woken);
    stats->fd.wakes += woken;
}

void
Kernel::backgroundTick(Process &proc)
{
    if (proc.exited())
        return;
    // Drain any open revocation epoch one slice at a time, so a sweep
    // makes progress across scheduler slices even when the guest never
    // re-enters the kernel.
    pumpRevocation(proc);
    // Proactive reclaim at the frame-budget ceiling: evict one LRU page
    // on the running process's behalf before the next allocation is
    // forced to.  The requester exemption keeps the running process
    // safe from its own background pass's OOM escalation.
    if (cfg.frameCapacity && phys.liveFrames() >= cfg.frameCapacity)
        reclaim(1, &proc.as());
}

SysResult
Kernel::sysEvPost(Process &proc, u64 pid)
{
    chargeSyscall(proc, 0);
    u64 target = pid == 0 ? proc.pid() : pid;
    Process *p = findProcess(target);
    if (!p || p->exited())
        return SysResult::fail(E_SRCH);
    u64 &count = eventCounts[target];
    ++count;
    sch->onEventPost(target);
    return SysResult::ok(count);
}

SysResult
Kernel::sysEvWait(Process &proc)
{
    chargeSyscall(proc, 0);
    auto it = eventCounts.find(proc.pid());
    if (it != eventCounts.end() && it->second > 0) {
        --it->second;
        return SysResult::ok(it->second);
    }
    // Nothing posted: block until ev_post wakes us and the restarted
    // syscall consumes the event.  From the host (or a hosted context)
    // the wait would never end — report would-block.
    if (sch->blockCurrent(proc, sched::BlockKind::EventWait, proc.pid(),
                          true))
        return SysResult::fail(E_INTR);
    return SysResult::fail(E_BUSY);
}

SysResult
Kernel::sysSleep(Process &proc, u64 ticks)
{
    chargeSyscall(proc, 0);
    if (ticks == 0)
        return SysResult::ok();
    // Success registers are written before the block takes effect, and
    // the PC is NOT rewound on wake (restart=false): re-running the
    // syscall would re-arm the deadline forever.  From the host there
    // is no context to park, and sleep degenerates to a no-op.
    sch->blockCurrent(proc, sched::BlockKind::Sleep, ticks, false);
    return SysResult::ok();
}

void
Kernel::runUntilIdle()
{
    sch->runUntilIdle();
}

void
Kernel::onKassert(const panic::KassertInfo &info)
{
    if (panicInProgress) {
        // The capture walk itself tripped another invariant (the state
        // is corrupt, after all): skip re-capture, just unwind.
        throw panic::Unwind{std::string("re-entrant panic: ") +
                            (info.expr ? info.expr : "?")};
    }
    panicInProgress = true;
    ++stats->hardening.panics;
    recorder.record(panic::EventKind::Panic,
                    static_cast<u64>(info.line), lastDispatchCode,
                    quiescentSeq);
    lastPanicReport = buildPanicReport(info);
    lastPanicImage.clear();
    if (panicSnapHook) {
        // The snapshot walks the very state that just failed an
        // invariant; a capture failure degrades to an empty image, it
        // never replaces the panic with a host abort.
        try {
            lastPanicImage = panicSnapHook(*this);
        } catch (...) {
            lastPanicImage.clear();
        }
    }
    lastPanicValid = true;
    std::string reason = info.expr ? info.expr : "?";
    if (info.why && *info.why) {
        reason += ": ";
        reason += info.why;
    }
    throw panic::Unwind{std::move(reason)};
}

std::string
Kernel::buildPanicReport(const panic::KassertInfo &info) const
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("schema").value(std::string_view("cheri.panic.v1"));
    w.key("expr").value(std::string_view(info.expr ? info.expr : ""));
    w.key("why").value(std::string_view(info.why ? info.why : ""));
    w.key("file").value(std::string_view(info.file ? info.file : ""));
    w.key("line").value(static_cast<u64>(info.line));
    w.key("pid").value(lastDispatchPid);
    w.key("syscall").value(lastDispatchCode);
    w.key("quiescent_seq").value(quiescentSeq);
    w.key("panics").value(stats->hardening.panics);
    w.key("events_recorded").value(recorder.eventsRecorded());
    w.key("ring");
    w.beginArray();
    for (const panic::Event &e : recorder.entries()) {
        w.beginObject();
        w.key("seq").value(e.seq);
        w.key("kind").value(panic::eventKindName(e.kind));
        w.key("a").value(e.a);
        w.key("b").value(e.b);
        w.key("c").value(e.c);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

void
Kernel::panicReset()
{
    // Teardown must be immune to further kasserts: anything that fails
    // below has no second capture to corrupt.
    panicInProgress = true;
    // Scheduler contexts reference Process objects; retire them before
    // the process table goes.
    sch->resetForPanic();
    // Wake edges fired by dying channels must not reach the scheduler
    // while the tables are in flux.
    kernelReady = false;
    // Destroying an AddressSpace detaches its MemAccess listeners and
    // discards its swap slots, so clearing the table returns every
    // frame and slot to the pools.
    procs.clear();
    shmSegments.clear();
    kqueues.clear();
    attached.clear();
    revEpochs.clear();
    eventCounts.clear();
    // Every counter restarts except the hardening block, which
    // deliberately survives the reset.
    const HardeningStats kept = stats->hardening;
    *stats = {};
    stats->hardening = kept;
    nextEpochId = 0;
    quiescentSeq = 0;
    nextPid = 1;
    nextPrincipal = 1;
    nextOtype = 1;
    nextShmId = 1;
    switches = 0;
    lastDispatchPid = 0;
    lastDispatchCode = ~u64{0};
    panicPlant = 0;
    injector.resetArms();
    phys.resetAccounting();
    swap.resetAccounting();
    fs = Vfs();
    initVfs();
    if (mx) {
        // The registry now reports this (empty) kernel alone.
        mx->reset();
        mx->attach(stats);
    }
    // The flight recorder keeps rolling across the reset: its ring is
    // the postmortem trail of what led here.
    kernelReady = true;
    panicInProgress = false;
}

void
Kernel::faultFired(FaultPoint point)
{
    // The injector reports no declined decisions: they are one per
    // access and carry no diagnostic weight.
    recorder.record(panic::EventKind::FaultDecision,
                    static_cast<u64>(point), 1);
}

void
Kernel::machineCheck(FaultPoint point, u64 addr)
{
    // Injected memory corruption is detected below and degraded to a
    // counted machine check: never a forged capability, never a host
    // abort.
    ++stats->hardening.machineChecks;
    recorder.record(panic::EventKind::MachineCheck, addr,
                    static_cast<u64>(point));
}

std::vector<u64>
Kernel::fdWakerPids(u64 chan) const
{
    // The peer end of a pipe/pty edge: a context parked on a channel's
    // readWait token is woken by writes (or close) through the node
    // whose writeCh is that channel; one parked on writeWait by reads
    // through the node whose readCh is it.  Mere possession counts —
    // closing the descriptor fires the same edge.
    std::vector<u64> out;
    if (chan == 0)
        return out;
    for (const auto &[pid, p] : procs) {
        if (p->exited())
            continue;
        bool waker = false;
        for (const OpenFileRef &of : p->fds) {
            if (!of || !of->node)
                continue;
            if (of->node->writeCh &&
                of->node->writeCh->readWait == chan && of->writable())
                waker = true;
            if (of->node->readCh &&
                of->node->readCh->writeWait == chan && of->readable())
                waker = true;
        }
        if (waker)
            out.push_back(pid);
    }
    return out;
}

void
Kernel::noteDeadlockDetected(u64 stuck_contexts)
{
    ++stats->hardening.deadlocksDetected;
    recorder.record(panic::EventKind::Watchdog, stuck_contexts, 0);
}

void
Kernel::deadlockKill(Process &victim, const std::string &why)
{
    ++stats->hardening.deadlocksKilled;
    recorder.record(panic::EventKind::Watchdog, 0, victim.pid());
    DeathInfo di;
    di.signal = SIG_KILL;
    di.deadlock = true;
    di.detail = why;
    // The teardown closes the victim's file table, firing the wake
    // edges that unblock the rest of the cycle.
    endProcess(victim, di);
}

SysResult
Kernel::sysSysctl(Process &proc, const std::string &name,
                  const UserPtr &oldp, u64 oldlen)
{
    chargeSyscall(proc, 1);
    if (name == "kern.ostype") {
        const char os[] = "MiniBSD";
        u64 n = std::min<u64>(oldlen, sizeof(os));
        int err = copyout(proc, os, oldp, n);
        return err ? SysResult::fail(err) : SysResult::ok(n);
    }
    if (name == "kern.text_addr") {
        // Management interfaces expose *virtual addresses*, never
        // kernel capabilities (paper section 4, "System calls").
        u64 va = proc.image.objects.empty()
                     ? 0
                     : proc.image.objects.front().textBase;
        if (oldlen < 8)
            return SysResult::fail(E_RANGE);
        int err = copyout(proc, &va, oldp, 8);
        return err ? SysResult::fail(err) : SysResult::ok(8);
    }
    return SysResult::fail(E_NOENT);
}

} // namespace cheri
