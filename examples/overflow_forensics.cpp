/**
 * @file
 * Domain example: overflow forensics with SIGPROT.
 *
 * A CheriABI process can *catch* capability faults, turning memory-
 * safety bugs into precise, recoverable diagnostics.  This example
 * runs the same buggy routine under both ABIs: under mips64 the
 * overflow silently corrupts a neighbouring structure; under CheriABI
 * a SIGPROT handler reports exactly which access faulted and through
 * which capability, and the neighbouring data survives.  It closes by
 * paging the process out and back in to show tags surviving swap.
 *
 * Build & run:  ./build/examples/overflow_forensics
 */

#include <cstdio>

#include "guest/context.h"
#include "libc/cstring.h"
#include "libc/malloc.h"

using namespace cheri;

namespace
{

/** The buggy routine: copies a 24-byte name into a 16-byte field. */
void
buggyCopy(GuestContext &ctx, GuestMalloc &heap, const GuestPtr &record)
{
    const char name[] = "a-name-that-is-far-too-long";
    GuestPtr staging = heap.malloc(sizeof(name));
    ctx.write(staging, name, sizeof(name));
    gStrcpy(ctx, record, staging); // record is only 16 bytes
}

void
runScenario(Abi abi)
{
    Kernel kern;
    SelfObject prog;
    prog.name = "forensics";
    prog.textSize = 0x1000;
    Process *proc = kern.spawn(abi, "forensics");
    kern.execve(*proc, prog, {"forensics"}, {});
    GuestContext ctx(kern, *proc);
    GuestMalloc heap(ctx);

    std::printf("\n--- %s ---\n",
                abi == Abi::CheriAbi ? "CheriABI" : "mips64 (legacy)");

    // A 16-byte name field, with the access-control list right after
    // it on the heap.
    GuestPtr name_field = heap.malloc(16);
    GuestPtr acl = heap.malloc(16);
    ctx.store<u64>(acl, 0, 0600); // rw-------
    std::printf("acl before: 0%lo\n",
                static_cast<unsigned long>(ctx.load<u64>(acl)));

    // Catch capability faults instead of dying.
    u64 hid = proc->registerHandler([&](Process &p, SigFrame &f) {
        std::printf("SIG_PROT caught: signo=%d (capability fault)\n",
                    f.signo);
        (void)p;
    });
    kern.sysSigaction(*proc, SIG_PROT, {SigAction::Kind::Handler, hid});

    // What is left after the copy is read inside a guest body: a
    // process ends when its body returns.  Under mips64 the copy
    // returns and the report follows it in the same body; under
    // CheriABI the copy traps, the handler recovers, and the report
    // runs in a second body.
    bool reported = false;
    auto report = [&](GuestContext &c, const char *state) {
        reported = true;
        u64 acl_after = c.load<u64>(acl);
        std::printf("acl after:  0%lo %s\n",
                    static_cast<unsigned long>(acl_after),
                    acl_after == 0600 ? "(intact)" : "(CORRUPTED!)");
        std::printf("process:    %s\n", state);
        if (abi != Abi::CheriAbi)
            return 0;
        // Bonus: page the heap out and back in; the pointers survive.
        GuestPtr table = heap.malloc(32);
        c.storePtr(table, 0, acl);
        u64 evicted = proc->as().swapOutResident(1 << 20);
        std::printf("swap:       evicted %lu pages (tags recorded in "
                    "swap metadata)\n",
                    static_cast<unsigned long>(evicted));
        GuestPtr back = c.loadPtr(table, 0);
        std::printf("after swap-in: stored pointer %s, *ptr=0%lo\n",
                    back.cap.tag() ? "still tagged" : "DEAD",
                    static_cast<unsigned long>(c.load<u64>(back)));
        return 0;
    };

    int rc = runGuest(ctx, [&](GuestContext &c) {
        buggyCopy(c, heap, name_field);
        return report(c, "alive, the copy returned");
    });
    if (!reported && !proc->exited()) {
        runGuest(ctx, [&](GuestContext &c) {
            return report(c, "alive, handler recovered");
        });
    }
    std::printf("buggy run:  rc=%d\n", rc);
}

} // namespace

int
main()
{
    std::printf("One buggy strcpy, two worlds:\n");
    runScenario(Abi::Mips64);
    runScenario(Abi::CheriAbi);
    return 0;
}
