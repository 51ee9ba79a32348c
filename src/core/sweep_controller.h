/**
 * @file
 * Sweeper-thread lifecycle and control plane, extracted from the
 * MineSweeper god-object so MineSweeper and MarkUs share one audited
 * implementation of the hard parts: the request/done condition variables,
 * the single-sweeper token, the allocation-pause gate, the mutator-side
 * watchdog and the shutdown drain.
 *
 * The controller owns *when* a sweep runs, never *what* it does: the
 * owning runtime passes a sweep function that performs one full pass
 * (mark + release + purge). execute_sweep() alone runs it, in sweep
 * context, with the single-sweep token held and no controller lock
 * held, for the sweeper thread, a mutator's watchdog/force/emergency
 * fallback and synchronous callers alike. Sweeps finish in the order they start, so every wait is
 * "until sweeps_done_ reaches ticket T" (or until its request is served).
 *
 * Invariants:
 *  - at most one sweep executes at a time (CAS on sweep_in_progress_);
 *  - a sweep request made before shutdown is either served or safely
 *    abandoned; the destructor-path drain guarantees no thread is left
 *    blocked on controller state while the owner destroys its members;
 *  - threads executing sweep machinery (in_sweep_context()) never block
 *    in the pause gate they are responsible for clearing.
 */
#pragma once

#include <condition_variable>
#include <functional>
#include <thread>

#include "core/stat_cells.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace msw::core {

/** Monotonic clock in nanoseconds (CLOCK_MONOTONIC). */
std::uint64_t monotonic_ns();

class SweepController
{
  public:
    struct Config {
        /** Serve requests from a dedicated sweeper thread. When false the
            controller degenerates to synchronous inline sweeps. */
        bool background = true;

        /**
         * Deadline for the background sweeper to pick up a request before
         * mutators fall back to synchronous sweeping (0 disables the
         * watchdog).
         */
        std::uint64_t watchdog_timeout_ms = 0;
    };

    /**
     * @param sweep_fn Runs exactly one sweep pass. Called with the
     *        single-sweep token held and no controller lock held.
     * @param stats Receives kPauseNs / kWatchdogFallbacks.
     */
    SweepController(const Config& config, std::function<void()> sweep_fn,
                    StatCells* stats);

    /** Implies shutdown(). */
    ~SweepController();

    SweepController(const SweepController&) = delete;
    SweepController& operator=(const SweepController&) = delete;

    /**
     * Spawn the background sweeper (no-op in synchronous mode). Called by
     * the owning runtime at the end of its constructor, once every member
     * the sweep function touches exists.
     */
    void start();

    /**
     * Stop serving: join the sweeper, wait out any in-flight fallback
     * sweep (claiming the sweep token permanently), and drain control-path
     * waiters. Idempotent. The owner MUST call this at the top of its own
     * destructor — before the members the sweep function touches are
     * destroyed; the base-class destructor chain runs too late for that.
     */
    void shutdown();

    /**
     * Ask for a background sweep (runs one inline in synchronous mode).
     * @param pause_allocations Also raise the backpressure gate: mutators
     *        entering maybe_pause() block until the sweep completes (§5.7).
     */
    void request_sweep(bool pause_allocations);

    /**
     * Run one sweep on the calling thread if no sweep is in flight
     * (single-sweeper invariant via CAS). Returns false if another thread
     * holds the sweep or shutdown has begun.
     */
    bool run_sweep_now();

    /**
     * Request a sweep and wait for one to complete, sweeping on the
     * calling thread if the background sweeper misses the deadline.
     */
    void force_sweep();

    /**
     * Wait until no sweep is requested or in flight (flush semantics),
     * serving stalled requests on the calling thread. Returns immediately
     * in synchronous mode.
     */
    void wait_idle();

    /** Backpressure gate on the allocation path (accounts kPauseNs). */
    void maybe_pause();

    /** Mutator-side stall detection; falls back to a synchronous sweep. */
    void check_watchdog();

    /**
     * atfork integration (called by core/lifecycle in rank order).
     *
     * prepare_fork() quiesces: it waits for any in-flight sweep to
     * complete and returns holding sweep_mu_, so the child forks with
     * the control plane consistent and no sweep half-done over the
     * subsystem locks. parent_after_fork() releases the mutex.
     * child_after_fork() releases it, resets the control state (the
     * single-sweep token, pause gate, watchdog and waiter counts all
     * described threads that do not exist in the child) and discards the
     * inherited — dead — sweeper thread handle; the sweeper itself is
     * re-spawned *lazily* on the next request (a child of a
     * multi-threaded fork may only be async-signal-safe until exec, and
     * TSan forbids thread creation in the atfork child handler).
     */
    void prepare_fork();
    void parent_after_fork();
    void child_after_fork();

    /**
     * Wait until every sweep started before the call has finished, for
     * at most @p timeout_ms (0: unbounded). Not cut short by shutdown: a
     * started sweep always finishes, even with the token claimed for good.
     */
    void wait_for_sweep_completion(std::uint64_t timeout_ms);

    std::uint64_t
    sweeps_done() const
    {
        // msw-relaxed(sweeper-token): monotonic stats read; callers
        // needing an ordered count wait under sweep_mu_ instead.
        return sweeps_done_.load(std::memory_order_relaxed);
    }

    /**
     * True on threads executing sweep machinery: the sweeper thread, and
     * any thread while execute_sweep() runs the sweep function on it. In
     * the self-hosted deployment their internal allocations arrive
     * through the interposed malloc; they must never block in the
     * allocation-pausing backpressure they themselves are responsible
     * for clearing.
     */
    static bool in_sweep_context();

    /**
     * Mark the current scope as sweep machinery, restoring the previous
     * state on exit: execute_sweep() runs the sweep function on the
     * *calling* thread, which for emergency, forced and watchdog-fallback
     * sweeps is a mutator whose own watchdog checks must survive the
     * sweep.
     */
    class ScopedSweepContext
    {
      public:
        ScopedSweepContext();
        ~ScopedSweepContext();

        ScopedSweepContext(const ScopedSweepContext&) = delete;
        ScopedSweepContext& operator=(const ScopedSweepContext&) = delete;

      private:
        bool saved_;
    };

  private:
    /** Who runs a sweep: a direct caller sweeps unasked; the sweeper
        and a mutator's fallback (counted) only serve a pending request. */
    enum class Runner { kCaller, kSweeper, kFallback };

    /** What a wait does each time its period lapses: give up, wait on,
        or serve the request with a fallback sweep and wait on. */
    enum class OnMiss { kReturn, kWait, kServe };

    /** Counts a thread in a control-path wait for the shutdown drain,
        or refuses it once shutdown() has set the stop bit. */
    class WaiterGuard;

    /**
     * The only code that runs a sweep: fork/shutdown gate and token CAS;
     * under sweep_mu_ clear the request and heartbeat and take a start
     * ticket; run sweep_fn_ in sweep context; take the done ticket, open the pause gate,
     * release the token; notify. False if no sweep could start.
     */
    bool execute_sweep(Runner runner);

    /** The one control-path wait: until @p done holds under sweep_mu_,
        acting per @p on_miss each @p period_ms. */
    template <typename Done>
    void await(std::uint64_t period_ms, OnMiss on_miss, Done done);

    bool ticket_done(std::uint64_t ticket) const MSW_REQUIRES(sweep_mu_);

    void sweeper_loop();

    /** Serve a pending post-fork lazy respawn of the sweeper thread. */
    void ensure_sweeper();

    /** maybe_pause() once the gate is shut: wait for the sweep to open
        it, count the pause, then check the watchdog. */
    void pause();

    Config config_;
    std::function<void()> sweep_fn_;
    StatCells* stats_;

    std::thread sweeper_thread_;
    // Rank kCoreControl: acquired with nothing else held; everything the
    // sweep does (quarantine, bins, extents) ranks higher.
    mutable Mutex sweep_mu_{util::LockRank::kCoreControl};
    std::condition_variable_any sweep_cv_;
    std::condition_variable_any sweep_done_cv_;
    bool sweep_requested_ MSW_GUARDED_BY(sweep_mu_) = false;
    /** sweep_requested_, mirrored for request_sweep()'s unlocked check
     *  for a request already pending. Written only with sweep_mu_ held. */
    std::atomic<bool> request_pending_{false};
    /** Start ticket: sweeps begun, so force_sweep() can wait for one that
     *  started after its call rather than for an in-flight one whose mark
     *  phase may predate the caller's changes. */
    std::uint64_t sweeps_started_ MSW_GUARDED_BY(sweep_mu_) = 0;
    bool shutdown_ MSW_GUARDED_BY(sweep_mu_) = false;
    /** prepare_fork() claimed sweep_in_progress_; the after-fork hooks
     *  must release it. Written only with sweep_mu_ held. */
    bool fork_token_held_ MSW_GUARDED_BY(sweep_mu_) = false;
    /** A fork is quiescing: execute_sweep() must not start new sweeps,
     *  or back-to-back sweeps under force-sweep pressure starve
     *  prepare_fork()'s token claim indefinitely. */
    std::atomic<bool> fork_pending_{false};
    std::atomic<bool> stopped_{false};
    std::atomic<bool> sweep_in_progress_{false};
    /** Set by child_after_fork(); consumed by ensure_sweeper(). */
    std::atomic<bool> sweeper_needs_respawn_{false};
    std::atomic<bool> pause_flag_{false};
    /** Done ticket: advanced under sweep_mu_, read lock-free for stats. */
    std::atomic<std::uint64_t> sweeps_done_{0};

    // Watchdog: timestamp of the oldest unserved sweep request (0 = none)
    // and a sticky "sweeper considered stalled" latch, cleared when the
    // background sweeper resumes serving requests.
    std::atomic<std::uint64_t> sweep_request_ns_{0};
    std::atomic<bool> watchdog_tripped_{false};

    // Threads in control-path waits (WaiterGuard), plus a stop bit that
    // shutdown() sets once no sweep can run: from then on no wait enters,
    // and shutdown() drains the ones inside before returning, so calls
    // that raced shutdown return safely instead of touching freed owner
    // state.
    std::atomic<int> control_waiters_{0};
};

}  // namespace msw::core
