#include "os/process.h"

#include "os/kernel.h"

namespace cheri
{

Process::Process(Kernel &kernel, u64 pid, u64 ppid, Abi abi,
                 std::string name, std::unique_ptr<AddressSpace> as,
                 MachineFeatures features)
    : kern(kernel), _pid(pid), _ppid(ppid), _abi(abi),
      _name(std::move(name)), _as(std::move(as)),
      _cost(abi, features, _as->format()), _mem(*_as)
{
    _mem.setCostModel(&_cost);
    // DDC: the legacy and hybrid ABIs retain an address-space-spanning
    // default data capability; CheriABI sets it to NULL so no access
    // can occur without naming an explicit capability.
    if (abi != Abi::CheriAbi)
        _regs.ddc = _as->rederivationRoot();
}

int
Process::allocFd(OpenFileRef file)
{
    for (size_t i = 0; i < fds.size(); ++i) {
        if (!fds[i]) {
            fds[i] = std::move(file);
            return static_cast<int>(i);
        }
    }
    fds.push_back(std::move(file));
    return static_cast<int>(fds.size() - 1);
}

OpenFileRef
Process::fd(int n) const
{
    if (n < 0 || static_cast<size_t>(n) >= fds.size())
        return nullptr;
    return fds[n];
}

int
Process::closeFd(int n)
{
    if (n < 0 || static_cast<size_t>(n) >= fds.size() || !fds[n])
        return E_BADF;
    VNodeRef node = fds[n]->node;
    fds[n].reset();
    // Last close of a channel end (no other open-file description —
    // dup'd or fork-shared — still references this vnode): flip the
    // closed flag and fire the wake edge for the *opposite* side.
    // Write end gone → readers wake to see EOF; read end gone →
    // writers wake to take EPIPE.  A pty end carries both channels.
    if (node && node.use_count() == 1) {
        if (node->writeCh) {
            node->writeCh->writerClosed = true;
            kern.fireFdEdge(node->writeCh->readWait);
        }
        if (node->readCh) {
            node->readCh->readerClosed = true;
            kern.fireFdEdge(node->readCh->writeWait);
        }
    }
    return E_OK;
}

void
Process::closeAllFds()
{
    for (size_t i = 0; i < fds.size(); ++i) {
        if (fds[i])
            closeFd(static_cast<int>(i));
    }
}

u64
Process::fdCount() const
{
    u64 n = 0;
    for (const auto &f : fds)
        n += f != nullptr;
    return n;
}

void
Process::cloneFdsInto(Process &child) const
{
    child.fds = fds; // shared open-file descriptions, copied table
}

u64
Process::threadCount() const
{
    u64 n = 1; // the running thread...
    for (const ThreadRecord &t : threads) {
        if (t.tid == curThread)
            n -= !t.live; // ...unless it self-exited (zombie)
        else
            n += t.live;
    }
    return n;
}

ThreadRecord *
Process::threadById(u64 tid)
{
    for (ThreadRecord &t : threads) {
        if (t.tid == tid && t.live)
            return &t;
    }
    return nullptr;
}

u64
Process::registerHandler(SigHandler fn)
{
    handlers.push_back(std::move(fn));
    return handlers.size() - 1;
}

const SigHandler *
Process::handlerById(u64 id) const
{
    if (id >= handlers.size())
        return nullptr;
    return &handlers[id];
}

void
Process::raiseSignal(int sig)
{
    if (sig > 0 && sig < numSignals)
        sigPending |= u64{1} << sig;
}

void
Process::exit(int status)
{
    _exited = true;
    _exitStatus = status;
}

void
Process::die(const DeathInfo &info)
{
    exit(128 + info.signal);
    _death = info;
}

} // namespace cheri
