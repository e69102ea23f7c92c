/**
 * @file
 * execve: image activation and startup-capability installation.
 *
 * Reproduces Figure 1 of the paper: the kernel replaces the address
 * space, maps the program and run-time linker, builds the initial stack
 * holding argv/envv/auxv — every pointer among them a bounded capability
 * under CheriABI — maps the read-only signal-return trampoline, and
 * installs capabilities into the new thread's register file (stack
 * capability, argument capability, PCC).
 */

#include "os/kernel.h"

#include <cstring>

#include "os/auxv.h"

namespace cheri
{

namespace
{

MappingKind
kindForSegment(const std::string &name)
{
    if (name.ends_with(":text"))
        return MappingKind::Text;
    if (name.ends_with(":rodata"))
        return MappingKind::RoData;
    return MappingKind::Data;
}

/** LinkerEnv giving the RTLD access to the process being built. */
class ProcLinkerEnv : public LinkerEnv
{
  public:
    ProcLinkerEnv(Kernel &kern, Process &proc) : kern(kern), proc(proc) {}

    Abi abi() const override { return proc.abi(); }

    Capability
    mapPages(u64 len, u32 prot, const std::string &name) override
    {
        u64 padded = proc.as().representablePadding(len);
        u64 va = proc.as().map(0, padded, prot, kindForSegment(name),
                               false, false, name);
        if (va == 0)
            throw std::runtime_error("execve: out of address space");
        Capability c = proc.as().capForRange(va, padded, prot, false);
        if (kern.trace())
            kern.trace()->derive(DeriveSource::Exec, c);
        if (proc.abi() != Abi::CheriAbi)
            return Capability::fromAddress(va);
        return c;
    }

    void
    storeBytes(u64 va, const void *buf, u64 len) override
    {
        mustSucceed(proc.mem().write(va, buf, len));
        proc.cost().copyLoop(0xC000000000 + va, va, len);
    }

    void
    storePointer(u64 va, const Capability &cap) override
    {
        if (proc.abi() == Abi::CheriAbi) {
            mustSucceed(proc.mem().writeCap(va, cap));
            proc.cost().store(va, capSize);
        } else {
            u64 addr = cap.address();
            mustSucceed(proc.mem().write(va, &addr, 8));
            proc.cost().store(va, 8);
        }
    }

    TraceSink *trace() const override { return kern.trace(); }
    CostModel *cost() const override { return &proc.cost(); }

  private:
    Kernel &kern;
    Process &proc;
};

} // namespace

void
Kernel::setupStack(Process &proc, const std::vector<std::string> &argv,
                   const std::vector<std::string> &envv)
{
    const bool cheri = proc.abi() == Abi::CheriAbi;
    const u64 ptr_size = cheri ? capSize : 8;

    // Map the stack with a guard page below it.
    u64 stack_len = cfg.stackSize;
    u64 stack_va = proc.as().map(0x7F0000000, stack_len,
                                 PROT_READ | PROT_WRITE,
                                 MappingKind::Stack, false, false,
                                 "stack");
    CHERI_KASSERT(stack_va != 0,
                  "exec stack mapping failed in a fresh address space");
    proc.as().map(stack_va - pageSize, pageSize, PROT_NONE,
                  MappingKind::Guard, true, false, "stack-guard");
    u64 stack_top = stack_va + stack_len;

    // --- Strings block (argv then envv), at the very top. ---
    u64 cursor = stack_top;
    std::vector<u64> arg_addrs, env_addrs;
    auto push_string = [&](const std::string &s) {
        cursor -= s.size() + 1;
        mustSucceed(proc.mem().write(cursor, s.c_str(), s.size() + 1));
        return cursor;
    };
    for (auto it = envv.rbegin(); it != envv.rend(); ++it)
        env_addrs.insert(env_addrs.begin(), push_string(*it));
    for (auto it = argv.rbegin(); it != argv.rend(); ++it)
        arg_addrs.insert(arg_addrs.begin(), push_string(*it));
    cursor &= ~u64{15};

    // The capability each array element holds: bounded to its string.
    Capability stack_region =
        proc.as().capForRange(stack_va, stack_len, PROT_READ | PROT_WRITE,
                              false);
    auto string_cap = [&](u64 addr, u64 size) {
        Capability c = stack_region.setAddress(addr);
        auto b = c.setBounds(size);
        CHERI_KASSERT(b.ok(),
                      "exec argv/envv string cap narrowing failed");
        if (traceSink)
            traceSink->derive(DeriveSource::Exec, b.value());
        return b.value();
    };

    auto write_ptr = [&](u64 va, const Capability &cap) {
        if (cheri) {
            mustSucceed(proc.mem().writeCap(va, cap));
        } else {
            u64 a = cap.address();
            mustSucceed(proc.mem().write(va, &a, 8));
        }
    };

    // --- envv[] then argv[] arrays (NULL-terminated). ---
    cursor -= (env_addrs.size() + 1) * ptr_size;
    u64 envv_va = cursor;
    for (size_t i = 0; i < env_addrs.size(); ++i) {
        write_ptr(envv_va + i * ptr_size,
                  string_cap(env_addrs[i], envv[i].size() + 1));
    }
    write_ptr(envv_va + env_addrs.size() * ptr_size, Capability());

    cursor -= (arg_addrs.size() + 1) * ptr_size;
    u64 argv_va = cursor;
    for (size_t i = 0; i < arg_addrs.size(); ++i) {
        write_ptr(argv_va + i * ptr_size,
                  string_cap(arg_addrs[i], argv[i].size() + 1));
    }
    write_ptr(argv_va + arg_addrs.size() * ptr_size, Capability());

    // --- ELF auxiliary vector: (tag, value) pairs. ---
    // The CheriABI C runtime finds argv/envv via these capabilities
    // rather than via knowledge of the stack layout (paper section 4).
    Capability argv_cap = string_cap(argv_va,
                                     (arg_addrs.size() + 1) * ptr_size);
    Capability envv_cap = string_cap(envv_va,
                                     (env_addrs.size() + 1) * ptr_size);
    struct AuxEnt
    {
        u64 tag;
        Capability val;
    };
    const Capability entry_pcc = proc.regs().pcc;
    std::vector<AuxEnt> aux = {
        {AT_ARGC, Capability::fromAddress(argv.size())},
        {AT_ARGV, argv_cap},
        {AT_ENVC, Capability::fromAddress(envv.size())},
        {AT_ENVV, envv_cap},
        {AT_ENTRY, entry_pcc},
        {AT_TRAMP, proc.trampolineCap},
        {AT_STACKBASE, Capability::fromAddress(stack_va)},
        {AT_NULL, Capability()},
    };
    u64 aux_ent_size = auxEntrySize(cheri ? capSize : 8);
    cursor -= aux.size() * aux_ent_size;
    cursor &= ~u64{15};
    u64 auxv_va = cursor;
    for (size_t i = 0; i < aux.size(); ++i) {
        u64 ent = auxv_va + i * aux_ent_size;
        mustSucceed(proc.mem().write(ent, &aux[i].tag, 8));
        write_ptr(ent + 16, aux[i].val);
    }

    // --- Registers (Figure 1): stack, argv, auxv capabilities. ---
    u64 sp = cursor & ~u64{15};
    if (cheri) {
        proc.stackCap = stack_region.setAddress(sp);
        proc.argvCap = argv_cap;
        proc.envvCap = envv_cap;
        proc.auxvCap = string_cap(auxv_va, aux.size() * aux_ent_size);
    } else {
        proc.stackCap = Capability::fromAddress(sp);
        proc.argvCap = Capability::fromAddress(argv_va);
        proc.envvCap = Capability::fromAddress(envv_va);
        proc.auxvCap = Capability::fromAddress(auxv_va);
    }
    proc.argc = static_cast<int>(argv.size());
    proc.envc = static_cast<int>(envv.size());
    proc.regs().stack() = proc.stackCap;
    proc.regs().c[regArgv] = proc.argvCap;
    if (traceSink) {
        traceSink->derive(DeriveSource::Exec, proc.stackCap);
        traceSink->derive(DeriveSource::Exec, proc.auxvCap);
    }
}

int
Kernel::execve(Process &proc, const SelfObject &program,
               const std::vector<std::string> &argv,
               const std::vector<std::string> &envv)
{
    chargeSyscall(proc, 2);
    // Admission check before tearing anything down: loading an image
    // needs frames for text/data/stack, so probe (and if necessary
    // reclaim toward) one free frame while the old address space is
    // still intact.  Failing here leaves the caller runnable with a
    // clean ENOMEM; failing mid-load would not.
    if (!phys.canAlloc(1, &proc.as())) {
        failNoMem();
        return E_NOMEM;
    }
    // An open revocation epoch belongs to the old address space; abort
    // it before that space is replaced (its proofs are meaningless for
    // the fresh principal).
    abortRevocationEpoch(proc);
    // Replace the address space: a fresh abstract principal.
    proc._as = freshAddressSpace(proc.pid());
    // Re-target the process's access path at the fresh space before
    // any image bytes are loaded.
    proc.mem().bind(*proc._as);
    proc._regs = ThreadRegs{};
    proc._name = program.name;
    if (proc.abi() != Abi::CheriAbi) {
        proc._regs.ddc = proc.as().rederivationRoot();
    } // CheriABI: DDC stays NULL — no ambient authority.

    // Load and link the image (program + needed libraries).
    ProcLinkerEnv env(*this, proc);
    proc.image = linker.link(program, env);
    const LinkedObject &main_obj = proc.image.objects.front();

    // PCC: bounded to the main object's text (paper: values installed
    // in PCC are bounded to shared objects).
    if (proc.abi() == Abi::CheriAbi) {
        Capability pcc = main_obj.textCap;
        auto code = pcc.andPerms(permsCode);
        CHERI_KASSERT(code.ok(),
                      "PCC perms mask must be derivable from textCap");
        proc._regs.pcc = code.value();
    } else {
        proc._regs.pcc = Capability::fromAddress(main_obj.textBase);
    }

    // Signal-return trampoline: read-only, execute-only page.
    u64 tramp_va = proc.as().map(0, pageSize, PROT_READ | PROT_EXEC,
                                 MappingKind::Trampoline, false, false,
                                 "sigtramp");
    CHERI_KASSERT(tramp_va != 0,
                  "sigtramp mapping failed in a fresh address space");
    if (proc.abi() == Abi::CheriAbi) {
        Capability t = proc.as().capForRange(tramp_va, pageSize,
                                             PROT_READ | PROT_EXEC,
                                             false);
        proc.trampolineCap = t;
        if (traceSink)
            traceSink->derive(DeriveSource::Exec, t);
    } else {
        proc.trampolineCap = Capability::fromAddress(tramp_va);
    }

    setupStack(proc, argv, envv);
    return E_OK;
}

} // namespace cheri
