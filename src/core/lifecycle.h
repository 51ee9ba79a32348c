/**
 * @file
 * Process-lifecycle hardening for the drop-in runtime (fork, thread
 * exit, crash), shared by the LD_PRELOAD shim and library embedders.
 *
 * Three concerns live here because they are process-global — there can
 * be only one set of pthread_atfork handlers, one SIGSEGV disposition
 * and one thread-exit key, no matter how many runtime instances exist:
 *
 *  - **Fork safety.** fork() in a multi-threaded process snapshots
 *    every lock in whatever state some other thread left it. The
 *    registered runtime's entire lock hierarchy is therefore acquired
 *    in rank order across fork() (core -> quarantine -> bin -> extent
 *    -> metrics) so the child inherits a consistent heap, and the
 *    child-side handler resets every piece of state that described
 *    threads which no longer exist (sweeper, helper pool, STW
 *    handshake, other threads' caches and buffers).
 *
 *  - **Thread exit.** A TSD destructor auto-unregisters mutator
 *    threads that exit without calling unregister_mutator_thread(),
 *    draining their quarantine buffer and thread cache so quarantined
 *    memory is never stranded with a dead thread.
 *
 *  - **Crash diagnostics.** An opt-in (MSW_CRASH_REPORT=1) SIGSEGV /
 *    SIGBUS handler classifies the faulting address against the heap
 *    reservation and the quarantine bitmap and, for faults inside
 *    quarantined memory, writes a "likely use-after-free" report to
 *    stderr using only async-signal-safe primitives before re-raising
 *    into the previous disposition.
 *
 * Exactly one runtime — the first MineSweeper constructed — is
 * "registered" and receives this protection; additional instances (the
 * multi-instance tests, MarkUs) keep the documented manual contracts.
 */
#pragma once

#include <cstdint>

namespace msw::core {

class MineSweeper;
class QuarantineRuntime;

namespace lifecycle {

/**
 * Register @p rt as the process's lifecycle-protected runtime and
 * install the pthread_atfork handler set (once per process; the
 * handlers no-op while no runtime is registered). First caller wins;
 * later registrations while one is live are ignored.
 */
void register_runtime(MineSweeper* rt);

/** Drop @p rt if it is the registered runtime (called from its dtor). */
void unregister_runtime(MineSweeper* rt);

/** The currently registered runtime, or nullptr. */
MineSweeper* registered_runtime();

/** How a faulting address relates to the registered runtime's heap. */
enum class FaultClass {
    kNoRuntime,     ///< No runtime registered; nothing to classify.
    kOutsideHeap,   ///< Outside the heap reservation (not ours).
    kQuarantined,   ///< Inside a quarantined allocation: likely UAF.
    kHeapLive,      ///< Inside a live allocation (stray write?).
    kHeapUnmapped,  ///< In-heap, but free space / no metadata.
};

/**
 * Classify @p addr against the registered runtime. Async-signal-safe:
 * relaxed atomic loads and lock-free metadata reads only. When the
 * result is kQuarantined, @p epoch_out (if non-null) receives the
 * sweep epoch the report quotes.
 */
FaultClass classify_fault(const void* addr,
                          std::uint64_t* epoch_out = nullptr);

/**
 * Install the SIGSEGV/SIGBUS crash-classification handler (idempotent).
 * Must run before any other chaining handler that should sit in front
 * of it — in particular before a MprotectTracker is created, which the
 * runtime constructor guarantees by consulting MSW_CRASH_REPORT first.
 */
void install_crash_handler();

/** install_crash_handler() iff MSW_CRASH_REPORT is set non-"0". */
bool install_crash_handler_from_env();

/**
 * Note that the calling thread registered with @p rt as a mutator.
 * If @p rt is the lifecycle-registered runtime, a TSD destructor is
 * armed that unregisters the thread on exit (idempotent with a manual
 * unregister_mutator_thread(), which calls forget_mutator_thread()).
 */
void note_mutator_thread(QuarantineRuntime* rt);

/** Disarm the calling thread's auto-unregister destructor. */
void forget_mutator_thread();

}  // namespace lifecycle
}  // namespace msw::core
