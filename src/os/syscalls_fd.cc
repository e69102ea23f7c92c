/**
 * @file
 * File-descriptor system calls.
 *
 * Every buffer crossing the user/kernel boundary moves through
 * copyin/copyout, i.e., through the caller's capability for CheriABI
 * processes — the kernel never substitutes its own authority
 * (paper Figure 3).
 */

#include "os/kernel.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "os/sched/sched.h"

namespace cheri
{

SysResult
Kernel::sysOpen(Process &proc, const UserPtr &path, u32 flags)
{
    chargeSyscall(proc, 1);
    std::string p;
    int err = copyinstr(proc, path, &p);
    if (err)
        return SysResult::fail(err);
    VNodeRef node = fs.lookup(p);
    if (!node) {
        if (!(flags & O_CREAT))
            return SysResult::fail(E_NOENT);
        node = fs.createFile(p);
        if (!node)
            return SysResult::fail(E_ACCES);
    }
    if (node->kind == NodeKind::Directory &&
        (flags & O_ACCMODE) != O_RDONLY) {
        return SysResult::fail(E_ISDIR);
    }
    if ((flags & O_TRUNC) && node->kind == NodeKind::Regular)
        node->data.clear();
    auto of = std::make_shared<OpenFile>();
    of->node = node;
    of->flags = flags;
    return SysResult::ok(static_cast<u64>(proc.allocFd(std::move(of))));
}

SysResult
Kernel::sysClose(Process &proc, int fd)
{
    chargeSyscall(proc, 0);
    int err = proc.closeFd(fd);
    return err ? SysResult::fail(err) : SysResult::ok();
}

SysResult
Kernel::sysRead(Process &proc, int fd, const UserPtr &buf, u64 len)
{
    chargeSyscall(proc, 1);
    OpenFileRef of = proc.fd(fd);
    if (!of)
        return SysResult::fail(E_BADF);
    std::vector<u8> tmp(len);
    s64 n = Vfs::read(*of, tmp.data(), len);
    if (n == -E_AGAIN) {
        // Empty channel with a live writer.  O_NONBLOCK callers get
        // the errno; scheduled callers park on the channel's read
        // wait-token until a write, a close, or EOF wakes them (the
        // E_INTR + rewound PC restarts the syscall — the scheduler's
        // blocking convention).  Hosted callers, which have no context
        // to park, see E_AGAIN and may retry themselves.
        if (!(of->flags & O_NONBLOCK) && of->node && of->node->readCh &&
            sch->blockCurrentFd(
                proc,
                sched::FdWait{{of->node->readCh->readWait}, false, 0})) {
            ++stats->fd.blocks;
            return SysResult::fail(E_INTR);
        }
        ++stats->fd.eagainErrors;
        return SysResult::fail(E_AGAIN);
    }
    if (n < 0)
        return SysResult::fail(static_cast<int>(-n));
    int err = copyout(proc, tmp.data(), buf, static_cast<u64>(n));
    if (err)
        return SysResult::fail(err);
    // The read freed channel space: writers blocked on a full pipe can
    // make progress now.
    if (n > 0 && of->node && of->node->readCh)
        fireFdEdge(of->node->readCh->writeWait);
    return SysResult::ok(static_cast<u64>(n));
}

SysResult
Kernel::sysWrite(Process &proc, int fd, const UserPtr &buf, u64 len)
{
    chargeSyscall(proc, 1);
    OpenFileRef of = proc.fd(fd);
    if (!of)
        return SysResult::fail(E_BADF);
    std::vector<u8> tmp(len);
    int err = copyin(proc, buf, tmp.data(), len);
    if (err)
        return SysResult::fail(err);
    s64 n = Vfs::write(*of, tmp.data(), len);
    if (n == -E_PIPE) {
        // All read ends are gone: EPIPE, and POSIX also delivers
        // SIG_PIPE to the writer.  The unmasked-default disposition
        // terminates the process through the structured teardown path
        // (core dump, address-space release, SIG_CHLD) rather than a
        // bare die(); a handler runs immediately; Ignore/masked just
        // leaves the errno.
        ++stats->fd.epipeErrors;
        bool masked = (proc.sigMask >> SIG_PIPE) & 1;
        if (!masked &&
            proc.sigaction(SIG_PIPE).kind == SigAction::Kind::Default) {
            DeathInfo di;
            di.signal = SIG_PIPE;
            di.detail = "write on pipe with no readers";
            faultProcess(proc, di);
        } else {
            proc.raiseSignal(SIG_PIPE);
            deliverSignals(proc);
        }
        return SysResult::fail(E_PIPE);
    }
    if (n == -E_AGAIN) {
        // Full pipe.  Never return 0 for a nonzero-length write: park
        // on the write wait-token until a reader frees space (or the
        // read end closes), or report E_AGAIN under O_NONBLOCK.
        if (!(of->flags & O_NONBLOCK) && of->node && of->node->writeCh &&
            sch->blockCurrentFd(
                proc,
                sched::FdWait{{of->node->writeCh->writeWait}, false, 0})) {
            ++stats->fd.blocks;
            return SysResult::fail(E_INTR);
        }
        ++stats->fd.eagainErrors;
        return SysResult::fail(E_AGAIN);
    }
    if (n < 0)
        return SysResult::fail(static_cast<int>(-n));
    if (of->node && of->node->writeCh && n > 0) {
        if (static_cast<u64>(n) < len) {
            // Short write into the tail of the buffer: the caller's
            // next write (of the remainder) is the one that blocks.
            ++stats->fd.partialWrites;
        }
        fireFdEdge(of->node->writeCh->readWait);
    }
    return SysResult::ok(static_cast<u64>(n));
}

SysResult
Kernel::sysLseek(Process &proc, int fd, s64 off, int whence)
{
    chargeSyscall(proc, 0);
    OpenFileRef of = proc.fd(fd);
    if (!of)
        return SysResult::fail(E_BADF);
    if (of->node->kind != NodeKind::Regular)
        return SysResult::fail(E_INVAL);
    s64 base = 0;
    switch (whence) {
      case 0: base = 0; break;                                    // SET
      case 1: base = static_cast<s64>(of->offset); break;          // CUR
      case 2: base = static_cast<s64>(of->node->data.size()); break; // END
      default: return SysResult::fail(E_INVAL);
    }
    s64 pos = base + off;
    if (pos < 0)
        return SysResult::fail(E_INVAL);
    of->offset = static_cast<u64>(pos);
    return SysResult::ok(of->offset);
}

SysResult
Kernel::sysPipe(Process &proc, int fds_out[2], u32 flags)
{
    chargeSyscall(proc, 1);
    if (flags & ~static_cast<u32>(O_NONBLOCK))
        return SysResult::fail(E_INVAL);
    auto [rd, wr] = Vfs::makePipe();
    auto rof = std::make_shared<OpenFile>();
    rof->node = rd;
    rof->flags = O_RDONLY | flags;
    auto wof = std::make_shared<OpenFile>();
    wof->node = wr;
    wof->flags = O_WRONLY | flags;
    fds_out[0] = proc.allocFd(std::move(rof));
    fds_out[1] = proc.allocFd(std::move(wof));
    return SysResult::ok();
}

SysResult
Kernel::sysDup(Process &proc, int fd)
{
    chargeSyscall(proc, 0);
    OpenFileRef of = proc.fd(fd);
    if (!of)
        return SysResult::fail(E_BADF);
    return SysResult::ok(static_cast<u64>(proc.allocFd(of)));
}

SysResult
Kernel::sysGetcwd(Process &proc, const UserPtr &buf, u64 len)
{
    chargeSyscall(proc, 1);
    const char cwd[] = "/home";
    if (len < sizeof(cwd))
        return SysResult::fail(E_RANGE);
    // The kernel fills the *entire caller-claimed buffer* (cwd plus
    // zero padding), as several libc implementations do.  A caller that
    // lies about its buffer size — the BOdiagsuite getcwd cases — gets
    // an out-of-bounds write under mips64 and an EPROT here under
    // CheriABI, because the copyout runs through the user capability.
    std::vector<u8> out(len, 0);
    std::memcpy(out.data(), cwd, sizeof(cwd));
    int err = copyout(proc, out.data(), buf, len);
    if (err)
        return SysResult::fail(err);
    return SysResult::ok(sizeof(cwd));
}

SysResult
Kernel::sysSelect(Process &proc, int nfds, const UserPtr &readfds,
                  const UserPtr &writefds, const UserPtr &exceptfds,
                  const UserPtr &timeout)
{
    // Four pointer arguments: the syscall for which the legacy ABI's
    // capability-construction cost bites hardest (paper section 5.2).
    chargeSyscall(proc, 4);
    // Any exit other than "parked" must disarm a deadline a previous
    // incarnation of this (restarted) select may have armed.
    auto bail = [&](int e) {
        sch->clearFdDeadline(proc);
        return SysResult::fail(e);
    };
    if (nfds < 0 || nfds > 64)
        return bail(E_INVAL);
    u64 rd = 0, wr = 0, ex = 0;
    int err;
    if (!readfds.isNull() && (err = copyin(proc, readfds, &rd, 8)))
        return bail(err);
    if (!writefds.isNull() && (err = copyin(proc, writefds, &wr, 8)))
        return bail(err);
    if (!exceptfds.isNull() && (err = copyin(proc, exceptfds, &ex, 8)))
        return bail(err);
    // timeout is {ticks, 0} in virtual clock ticks: null pointer means
    // wait forever, zero ticks means poll and return immediately.
    bool haveTimeout = !timeout.isNull();
    u64 ticks = 0;
    if (haveTimeout) {
        u64 tv[2];
        if ((err = copyin(proc, timeout, tv, sizeof(tv))))
            return bail(err);
        ticks = tv[0];
    }
    u64 rd_out = 0, wr_out = 0;
    u64 ready = 0;
    // Wait-tokens for every interest bit that is not ready yet: the
    // channels whose edges can change this select's answer.
    std::vector<u64> chans;
    for (int fd = 0; fd < nfds; ++fd) {
        u64 bit = u64{1} << fd;
        OpenFileRef of = proc.fd(fd);
        if (!of) {
            if ((rd | wr | ex) & bit)
                return bail(E_BADF);
            continue;
        }
        if (rd & bit) {
            if (Vfs::readReady(of->node, of->offset)) {
                rd_out |= bit;
                ++ready;
            } else if (of->node->readCh) {
                chans.push_back(of->node->readCh->readWait);
            }
        }
        if (wr & bit) {
            if (Vfs::writeReady(of->node)) {
                wr_out |= bit;
                ++ready;
            } else if (of->node->writeCh) {
                chans.push_back(of->node->writeCh->writeWait);
            }
        }
    }
    if (!ready) {
        // Nothing ready.  A zero timeout polls; an expired deadline
        // (we were parked and the virtual clock woke us) reports the
        // timeout; otherwise park on every gathered wait-token, with
        // the deadline armed once across restarts.  No tokens and no
        // timeout would be an unwakeable sleep — degrade to a poll,
        // as before this select blocked at all.
        if (sch->consumeFdTimeout(proc)) {
            ++stats->fd.selectTimeouts;
        } else if (!(haveTimeout && ticks == 0) &&
                   (!chans.empty() || haveTimeout) &&
                   sch->blockCurrentFd(proc, sched::FdWait{std::move(chans),
                                                           haveTimeout,
                                                           ticks})) {
            ++stats->fd.blocks;
            return SysResult::fail(E_INTR);
        }
    }
    sch->clearFdDeadline(proc);
    if (!readfds.isNull() && (err = copyout(proc, &rd_out, readfds, 8)))
        return SysResult::fail(err);
    if (!writefds.isNull() && (err = copyout(proc, &wr_out, writefds, 8)))
        return SysResult::fail(err);
    if (!exceptfds.isNull()) {
        u64 zero = 0;
        if ((err = copyout(proc, &zero, exceptfds, 8)))
            return SysResult::fail(err);
    }
    return SysResult::ok(ready);
}

} // namespace cheri
