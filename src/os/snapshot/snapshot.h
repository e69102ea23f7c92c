/**
 * @file
 * Deterministic checkpoint/restore of the whole kernel.
 *
 * A snapshot serializes every piece of state the kernel's execution
 * depends on — processes and their address spaces (including cap-dirty
 * bits and per-granule tag metadata), physical frames, swap slots with
 * refcounts, the VFS tree with pipe channels and wait tokens, the
 * scheduler's run queue and per-context capability register files
 * (tags intact), open revocation epochs, fault-injector arms, the
 * kernel counters, and the attached metrics registry's own state —
 * into one versioned binary image.  Restoring the
 * image into a Kernel rebuilds all of it bit-exactly; because the
 * system is fully deterministic (virtual clock, instruction-boundary
 * preemption, seeded injection), a restored system continues exactly
 * as the original would have.
 *
 * Restore routes through the existing invalidation machinery by
 * construction: every restored process gets a *fresh* MemAccess (its
 * TLBs and fetch generation start cold) and every restored context a
 * fresh Interpreter (decode cache cold) — caches rebuild from the
 * restored ground truth, so nothing stale can survive.  TLB and decode
 * caches are pure caches: cold-starting them is semantically invisible
 * (it only shifts modelled miss counts *after* the snapshot point,
 * identically in record and replay).
 *
 * What is NOT captured (save() refuses, with a clean error):
 *  - host-callback state: live signal frames mid-handler, hosted
 *    scheduler contexts, file-backed mappings (BackingReader
 *    closures), and schedulers other than sched::Scheduler;
 *  - guest handler std::functions (SigHandler) — restored processes
 *    have an empty handler table; dangling handler ids in sigActions
 *    are skipped safely by signal delivery (test workloads re-register
 *    after restore when they need handlers);
 *  - the RTLD's LinkedImage (host-side metadata used only by
 *    coredump); restored processes report an empty image.
 *
 * A failed restore never host-aborts and never leaves the kernel
 * half-built: the target is reset to an empty, usable baseline, with
 * FD teardown edges suppressed by the kernel-ready guard.
 */

#ifndef CHERI_OS_SNAPSHOT_SNAPSHOT_H
#define CHERI_OS_SNAPSHOT_SNAPSHOT_H

#include <string>
#include <vector>

#include "cap/types.h"

namespace cheri
{

class Kernel;

namespace snap
{

/** The friend-access seam: defined in snapshot.cc only. */
struct Access;

/** Image format version (bumped on any layout change).
 *  v2: DeathInfo::deadlock, the kernel's hardening counters, and the
 *  metrics hardening mirror (the watchdog / structured-panic /
 *  machine-check counters).
 *  v3: the metrics section no longer stores copies of the kernel
 *  counters (memory pressure, revocation, scheduler, FD I/O,
 *  hardening): the registry reads them from the kernel, so the
 *  kernel and scheduler sections carry the only copy. */
constexpr u32 imageVersion = 3;

/**
 * Serialize @p kern's complete state.  Returns the image, or an empty
 * vector with @p error (nullable) set when the kernel holds state a
 * snapshot cannot capture (see the file comment).
 */
std::vector<u8> save(Kernel &kern, std::string *error = nullptr);

/**
 * Replace @p kern's state with the image's.  Returns true on success;
 * on failure (truncated/corrupt image, version mismatch) returns false
 * with @p error set and @p kern reset to an empty, usable baseline —
 * never a host abort, never a half-restored kernel.
 *
 * The kernel's environment (trace sink, metrics registry, check hook)
 * is preserved across restore; the image's metrics section is loaded
 * into the attached registry when one is present, and the registry
 * then reports the restored kernel's counters alone.
 */
bool restore(Kernel &kern, const std::vector<u8> &image,
             std::string *error = nullptr);

/** Test hook: flip the kernel-ready guard that suppresses FD wake
 *  edges during restore (see Kernel::fireFdEdge). */
void setKernelReadyForTest(Kernel &kern, bool ready);

/**
 * Wire snap::save into @p kern's structured-panic path, so a
 * CHERI_KASSERT failure emits a CHRIIMG1 image (Kernel::panicImage)
 * alongside the JSON panic report.  Layering: the core kernel library
 * cannot link the snapshot writer, so the capturer is injected from
 * above.  A capture that fails (unsnapshottable state, or a second
 * fault inside the walk) degrades to an empty image — never an abort.
 */
void installPanicSnapshotHook(Kernel &kern);

} // namespace snap
} // namespace cheri

#endif // CHERI_OS_SNAPSHOT_SNAPSHOT_H
