/**
 * @file
 * Shared test scaffolding: a booted kernel with one exec'd process per
 * ABI, plus a trivial SELF program image.
 */

#ifndef CHERI_TESTS_TEST_UTIL_H
#define CHERI_TESTS_TEST_UTIL_H

#include <memory>

#include "guest/context.h"
#include "libc/malloc.h"
#include "os/kernel.h"

namespace cheri::test
{

/** A minimal program image with a couple of symbols and GOT entries. */
inline SelfObject
trivialProgram()
{
    SelfObject prog;
    prog.name = "testprog";
    prog.textSize = 0x2000;
    prog.data.resize(64, 0);
    prog.bssSize = 64;
    prog.symbols = {
        {"global_counter", 0, 8, false},
        {"global_buf", 16, 32, false},
        {"main", 0, 0x100, true},
    };
    prog.relocs = {
        {RelocKind::CapGlobal, 0, 0, "global_counter"},
        {RelocKind::CapGlobal, 1, 0, "global_buf"},
        {RelocKind::CapFunction, 2, 0, "main"},
    };
    return prog;
}

/** MemAccess::readCap() as a Result. */
inline Result<Capability>
readCap(MemAccess &mem, u64 va)
{
    Capability c;
    if (CapCheck chk = mem.readCap(va, c))
        return *chk;
    return c;
}

/** Kernel + one process + guest context, ready to run guest code. */
struct GuestSystem
{
    explicit GuestSystem(Abi abi, KernelConfig cfg = {})
        : kern(cfg), prog(trivialProgram())
    {
        proc = kern.spawn(abi, "test");
        int err = kern.execve(*proc, prog, {"testprog", "arg1"},
                              {"HOME=/home"});
        if (err != E_OK)
            throw std::runtime_error("execve failed in fixture");
        ctx = std::make_unique<GuestContext>(kern, *proc);
    }

    Kernel kern;
    SelfObject prog;
    Process *proc = nullptr;
    std::unique_ptr<GuestContext> ctx;
};

} // namespace cheri::test

#endif // CHERI_TESTS_TEST_UTIL_H
