/**
 * @file
 * GuestContext: the execution environment of guest code.
 *
 * Guest workloads in this reproduction are C++ functions, but every one
 * of their memory accesses is routed through this class, which applies
 * the process ABI's checking discipline:
 *
 *  - CheriABI: the access must be authorized by the *pointer's own*
 *    capability — tag set, unsealed, in bounds, permission present —
 *    else a CapTrap (SIG_PROT) is raised;
 *  - mips64: the pointer is an integer checked only against the
 *    process's DDC (i.e., the whole address space): the legacy,
 *    unprotected regime.
 *
 * Every access is also charged to the process's cost model, and pointer
 * loads/stores use the ABI's pointer width — which is how the paper's
 * cache-pressure overheads arise.
 */

#ifndef CHERI_GUEST_CONTEXT_H
#define CHERI_GUEST_CONTEXT_H

#include <cstring>
#include <functional>
#include <string>

#include "guest/guest_ptr.h"
#include "machine/trap.h"
#include "os/kernel.h"

namespace cheri
{

class GuestContext
{
  public:
    GuestContext(Kernel &kernel, Process &process)
        : kern(kernel), _proc(process)
    {
    }

    Kernel &kernel() { return kern; }
    Process &proc() { return _proc; }
    Abi abi() const { return _proc.abi(); }
    CostModel &cost() { return _proc.cost(); }
    bool isCheri() const { return abi() == Abi::CheriAbi; }

    /** Pointer width in guest memory under this ABI. */
    u64 ptrSize() const { return _proc.cost().pointerSize(); }

    /** @name Checked raw access (throws CapTrap on violation) */
    /// @{
    void
    read(const GuestPtr &p, void *buf, u64 len)
    {
        const Capability &via = authorityFor(p);
        if (CapCheck chk = via.checkAccess(p.addr(), len, PERM_LOAD))
            trap(*chk, p.addr(), via, "guest load");
        cost().load(p.addr(), len);
        if (CapCheck fault = _proc.mem().read(p.addr(), buf, len))
            trap(*fault, p.addr(), via, "guest load");
    }

    void
    write(const GuestPtr &p, const void *buf, u64 len)
    {
        const Capability &via = authorityFor(p);
        if (CapCheck chk = via.checkAccess(p.addr(), len, PERM_STORE))
            trap(*chk, p.addr(), via, "guest store");
        cost().store(p.addr(), len);
        if (CapCheck fault = _proc.mem().write(p.addr(), buf, len))
            trap(*fault, p.addr(), via, "guest store");
    }
    /// @}

    /** @name Typed scalar access */
    /// @{
    template <typename T>
    T
    load(const GuestPtr &p, s64 off = 0)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T v;
        read(p + off, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    store(const GuestPtr &p, s64 off, T v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        write(p + off, &v, sizeof(T));
    }
    /// @}

    /** @name Pointer-in-memory access (ABI width, tag-preserving) */
    /// @{
    GuestPtr
    loadPtr(const GuestPtr &p, s64 off = 0)
    {
        GuestPtr at = p + off;
        if (!isCheri())
            return GuestPtr(Capability::fromAddress(load<u64>(at)));
        const Capability &via = at.cap;
        if (CapCheck chk = via.checkAccess(at.addr(), capSize,
                                           PERM_LOAD | PERM_LOAD_CAP))
            trap(*chk, at.addr(), via, "pointer load");
        cost().load(at.addr(), capSize);
        Result<Capability> r = _proc.mem().readCap(at.addr());
        if (!r.ok())
            trap(r.fault(), at.addr(), via, "pointer load");
        return GuestPtr(r.value());
    }

    void
    storePtr(const GuestPtr &p, s64 off, const GuestPtr &v)
    {
        GuestPtr at = p + off;
        if (!isCheri()) {
            store<u64>(at, 0, v.addr());
            return;
        }
        const Capability &via = at.cap;
        if (CapCheck chk = via.checkAccess(at.addr(), capSize,
                                           PERM_STORE | PERM_STORE_CAP))
            trap(*chk, at.addr(), via, "pointer store");
        cost().store(at.addr(), capSize);
        if (CapCheck fault = _proc.mem().writeCap(at.addr(), v.cap))
            trap(*fault, at.addr(), via, "pointer store");
    }
    /// @}

    /** Charge @p n plain ALU instructions (compute between accesses). */
    void work(u64 n) { cost().alu(n); }

    /**
     * Cast an integer back to a pointer — the "integer provenance"
     * idiom.  The result is untagged under every ABI: under CheriABI it
     * traps on use; under mips64 it works, as it always (unsafely) did,
     * because the access is checked against DDC instead.
     */
    GuestPtr
    ptrFromInt(u64 addr) const
    {
        return GuestPtr(Capability::fromAddress(addr));
    }

    /**
     * Rebuild a pointer from an integer *with explicit provenance*, the
     * supported uintptr_t round-trip: the bits travel as an integer but
     * the capability comes from @p provenance.
     */
    GuestPtr
    ptrFromInt(u64 addr, const GuestPtr &provenance) const
    {
        return GuestPtr(provenance.cap.setAddress(addr));
    }

    /**
     * Hybrid mode's __capability annotation: derive a bounded
     * capability for [p, p+len) from the ambient DDC.  (Under CheriABI
     * there is no DDC to derive from — pointers arrive as capabilities
     * already — so the pointer is returned unchanged.)
     */
    GuestPtr
    annotate(const GuestPtr &p, u64 len)
    {
        if (isCheri())
            return p;
        Capability c = _proc.ddc().setAddress(p.addr());
        auto b = c.setBounds(len);
        if (!b.ok())
            return GuestPtr();
        cost().capManip(2);
        return GuestPtr(b.value());
    }

    /** Marshal a guest pointer into a syscall argument: a capability
     *  register under CheriABI (and for annotated hybrid pointers), an
     *  integer register otherwise. */
    UserPtr
    toUser(const GuestPtr &p) const
    {
        if (isCheri())
            return UserPtr::fromCap(p.cap);
        if (abi() == Abi::Hybrid && p.cap.tag())
            return UserPtr::fromCap(p.cap);
        return UserPtr::fromAddr(p.addr());
    }

    /** @name System-call veneers (libc syscall stubs)
     *
     * Each veneer loads the numbered-syscall argument registers and
     * enters the kernel through Kernel::dispatch — the same single
     * choke point interpreted code uses — so every call is counted,
     * timed, and errno-converted in one place.  The s64-returning
     * veneers return -errno on failure; the int-returning ones return
     * the errno itself (0 on success), like kernel-internal callers.
     */
    /// @{
    GuestPtr mmap(u64 len, u32 prot = PROT_READ | PROT_WRITE,
                  u32 flags = MAP_ANON | MAP_PRIVATE,
                  GuestPtr hint = {});
    int munmap(const GuestPtr &p, u64 len);
    int mprotect(const GuestPtr &p, u64 len, u32 prot);
    s64 open(const std::string &path, u32 flags);
    s64 read(int fd, const GuestPtr &buf, u64 len);
    s64 write(int fd, const GuestPtr &buf, u64 len);
    int close(int fd);
    s64 lseek(int fd, s64 off, int whence);
    /** Writes the two descriptors through @p fds (two 32-bit ints).
     *  @p flags accepts O_NONBLOCK (pipe2 semantics). */
    int pipe(const GuestPtr &fds, u32 flags = 0);
    s64 dup(int fd);
    s64 getpid();
    int kill(u64 pid, int sig);
    s64 getcwd(const GuestPtr &buf, u64 len);
    s64 select(int nfds, const GuestPtr &rd, const GuestPtr &wr,
               const GuestPtr &ex, const GuestPtr &timeout);
    /// @}

    /** Copy a host string into fresh guest memory (for syscalls that
     *  take paths); reuses an internal scratch mapping. */
    GuestPtr stageString(const std::string &s);

    /** Host-side convenience: read a NUL-terminated guest string. */
    std::string readString(const GuestPtr &p, u64 max = 4096);

  private:
    /** The capability actually checked for an access through @p p. */
    const Capability &
    authorityFor(const GuestPtr &p) const
    {
        // CheriABI: the pointer *is* the authority.  mips64: the pointer
        // is an integer; the implicit authority is DDC.  Hybrid:
        // annotated (tagged) pointers carry their own authority,
        // unannotated ones fall back to DDC.
        if (isCheri())
            return p.cap;
        if (abi() == Abi::Hybrid && p.cap.tag())
            return p.cap;
        return _proc.ddc();
    }

    /** Raise @p fault as a CapTrap (out of line, so the inline access
     *  paths build no strings). */
    [[noreturn]] static void trap(CapFault fault, u64 addr,
                                  const Capability &via, const char *what);

    Kernel &kern;
    Process &_proc;
    GuestPtr scratch;
    u64 scratchSize = 0;
};

/**
 * A guest function frame: bump-allocates automatic variables from the
 * stack capability and derives a *bounded* capability for each (the
 * compiler-generated CSetBounds of the paper's "Automatic references").
 * Restores the stack pointer on destruction.
 */
class StackFrame
{
  public:
    /**
     * @param frame_bytes total frame size to reserve
     * @param n_bounded_locals address-taken locals (prologue cost)
     * @param n_args arguments (variadic spill cost)
     * @param variadic whether the callee is variadic
     */
    StackFrame(GuestContext &ctx, u64 frame_bytes,
               u64 n_bounded_locals = 0, u64 n_args = 0,
               bool variadic = false);
    ~StackFrame();

    StackFrame(const StackFrame &) = delete;
    StackFrame &operator=(const StackFrame &) = delete;

    /** Allocate @p size bytes in the frame; returns a bounded pointer. */
    GuestPtr alloc(u64 size, u64 align = 16);

  private:
    GuestContext &ctx;
    Capability savedStack;
    u64 bumpAddr;
    u64 frameBase;
};

/**
 * Run @p fn as the body of @p ctx's process.  Capability traps become
 * SIG_PROT: delivered to a registered handler if any (the guest function
 * is still unwound), fatal otherwise.  Returns the process exit status
 * (fn's return value on a clean run, 128+signal on death).
 */
int runGuest(GuestContext &ctx, const std::function<int(GuestContext &)> &fn);

} // namespace cheri

#endif // CHERI_GUEST_CONTEXT_H
