#include "core/sweep_controller.h"

#include <ctime>
#include <new>

#include "metrics/telemetry.h"
#include "util/failpoint.h"
#include "util/log.h"

namespace msw::core {

using util::Failpoint;
using util::failpoint_should_fail;

namespace {

thread_local bool tls_sweep_context = false;

void
sleep_ms(long ms)
{
    struct timespec ts {
        0, ms * 1000000
    };
    ::nanosleep(&ts, nullptr);
}

}  // namespace

std::uint64_t
monotonic_ns()
{
    struct timespec ts;
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

bool
SweepController::in_sweep_context()
{
    return tls_sweep_context;
}

SweepController::ScopedSweepContext::ScopedSweepContext()
    : saved_(tls_sweep_context)
{
    tls_sweep_context = true;
}

SweepController::ScopedSweepContext::~ScopedSweepContext()
{
    tls_sweep_context = saved_;
}

SweepController::SweepController(const Config& config,
                                 std::function<void()> sweep_fn,
                                 StatCells* stats)
    : config_(config), sweep_fn_(std::move(sweep_fn)), stats_(stats)
{}

SweepController::~SweepController()
{
    shutdown();
}

void
SweepController::start()
{
    if (config_.background)
        sweeper_thread_ = std::thread([this] { sweeper_loop(); });
}

void
SweepController::shutdown()
{
    if (stopped_.exchange(true, std::memory_order_acq_rel))
        return;
    {
        MutexGuard g(sweep_mu_);
        shutdown_ = true;
    }
    // Wake everything: the sweeper (to exit) and any force_sweep()/
    // wait_idle()/pause waiters (their predicates include shutdown_).
    sweep_cv_.notify_all();
    sweep_done_cv_.notify_all();
    if (sweeper_thread_.joinable())
        sweeper_thread_.join();

    // Claim the sweep token permanently: a watchdog-fallback or
    // synchronous sweep that won the CAS before shutdown finishes first
    // (the owner's members are still alive here); any later attempt fails
    // the CAS and returns without sweeping.
    bool expected = false;
    while (!sweep_in_progress_.compare_exchange_weak(
        expected, true, std::memory_order_acquire)) {
        expected = false;
        sleep_ms(1);
    }
    sweep_done_cv_.notify_all();

    // Drain control-path waiters that entered before shutdown was
    // visible, so no thread is left blocked on state the owner destroys.
    while (control_waiters_.load(std::memory_order_acquire) != 0) {
        sweep_done_cv_.notify_all();
        sleep_ms(1);
    }
}

// The fork hooks intentionally hold sweep_mu_ across function (and
// process) boundaries; the pairing is enforced by core/lifecycle, not
// by scopes the static analysis can see.
void
SweepController::prepare_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    // Quiesce by *claiming* the sweep token, then fork with sweep_mu_
    // held: the child must never inherit a sweep half-done over the
    // subsystem locks. The gate comes first — run_sweep_now() takes the
    // token before sweep_mu_, so under steady force-sweep pressure a
    // new sweep wins the token inside any observation gap and an
    // ungated claim loop starves indefinitely (each 1 ms retry lands
    // mid-sweep). With fork_pending_ up, no new sweep starts, and the
    // claim succeeds once the one in-flight sweep drains. After
    // shutdown() the token is claimed permanently and no sweep is
    // running — holding the mutex alone suffices.
    fork_pending_.store(true, std::memory_order_release);
    for (;;) {
        sweep_mu_.lock();
        if (stopped_.load(std::memory_order_acquire))
            return;
        bool expected = false;
        if (sweep_in_progress_.compare_exchange_strong(
                expected, true, std::memory_order_acquire)) {
            fork_token_held_ = true;
            return;
        }
        sweep_mu_.unlock();
        sleep_ms(1);
    }
}

void
SweepController::parent_after_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    const bool release_token = fork_token_held_;
    fork_token_held_ = false;
    if (release_token)
        sweep_in_progress_.store(false, std::memory_order_release);
    fork_pending_.store(false, std::memory_order_release);
    sweep_mu_.unlock();
    // Waiters that timed out against the fork window re-check promptly
    // instead of riding out another watchdog period.
    if (release_token)
        sweep_done_cv_.notify_all();
}

void
SweepController::child_after_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    fork_pending_.store(false, std::memory_order_release);
    if (!stopped_.load(std::memory_order_acquire)) {
        // Control state inherited from the parent describes threads
        // that do not exist here: pending requests, the pause gate,
        // watchdog latches and blocked waiters all reset. The token is
        // held by prepare_fork()'s claim (and its owner is the thread
        // that forked, i.e. us) — release it.
        fork_token_held_ = false;
        sweep_requested_ = false;
        // msw-relaxed(fork-window): the child is single-threaded here;
        // nothing can race these resets.
        sweep_request_ns_.store(0, std::memory_order_relaxed);
        watchdog_tripped_.store(false, std::memory_order_relaxed);
        // msw-relaxed(fork-window): as above — single-threaded child.
        pause_flag_.store(false, std::memory_order_relaxed);
        sweep_in_progress_.store(false, std::memory_order_release);
        control_waiters_.store(0, std::memory_order_release);
        // condition_variable_any keeps an internal heap mutex that
        // notify/wait lock *outside* sweep_mu_ (libstdc++ pairs the
        // notifier with waiters through it). A thread mid-notify at
        // fork time leaves it locked in the child with no owner, so
        // the inherited objects are unusable: reinitialise in place.
        // No destructor — destroying the locked internal mutex is UB;
        // the orphaned allocation is the price of a usable child.
        new (&sweep_cv_) std::condition_variable_any();
        new (&sweep_done_cv_) std::condition_variable_any();
        if (config_.background) {
            // The inherited handle names a parent thread; joining or
            // destroying it would terminate. Reinitialise in place to
            // "not a thread" without running the destructor.
            new (&sweeper_thread_) std::thread();
            if (!util::failpoint_should_fail(Failpoint::kForkChild)) {
                sweeper_needs_respawn_.store(true,
                                             std::memory_order_release);
            }
            // else: simulate a failed respawn — the watchdog and the
            // force_sweep()/wait_idle() self-serve loops keep the child
            // live on mutator threads.
        }
    }
    sweep_mu_.unlock();
}

void
SweepController::ensure_sweeper()
{
    if (!sweeper_needs_respawn_.load(std::memory_order_acquire))
        return;
    MutexGuard g(sweep_mu_);
    // msw-relaxed(sweeper-token): re-check under sweep_mu_, which both
    // writers hold; the acquire load above did the synchronisation.
    if (!sweeper_needs_respawn_.load(std::memory_order_relaxed) ||
        shutdown_) {
        return;
    }
    sweeper_thread_ = std::thread([this] { sweeper_loop(); });
    sweeper_needs_respawn_.store(false, std::memory_order_release);
}

void
SweepController::request_sweep(bool pause_allocations)
{
    if (!config_.background) {
        run_sweep_now();
        return;
    }
    ensure_sweeper();
    {
        MutexGuard g(sweep_mu_);
        sweep_requested_ = true;
        // Watchdog heartbeat: stamp the oldest unserved request (the
        // sweeper clears this when it picks the request up).
        // msw-relaxed(sweeper-token): stamped under sweep_mu_; the
        // unlocked watchdog read tolerates staleness by one period.
        if (sweep_request_ns_.load(std::memory_order_relaxed) == 0)
            sweep_request_ns_.store(monotonic_ns(),
                                    std::memory_order_relaxed);
        // msw-relaxed(sweeper-token): advisory gate; waiters poll it
        // on a timed wait, so a stale read only delays one period.
        if (pause_allocations)
            pause_flag_.store(true, std::memory_order_relaxed);
    }
    sweep_cv_.notify_all();
    check_watchdog();
}

bool
SweepController::run_sweep_now()
{
    // A forking thread is waiting for the token; don't feed it new
    // sweeps. Callers treat `false` as "someone else owns progress" and
    // retry on their own timers, which outlive the fork window.
    if (fork_pending_.load(std::memory_order_acquire))
        return false;
    bool expected = false;
    if (!sweep_in_progress_.compare_exchange_strong(
            expected, true, std::memory_order_acquire)) {
        return false;
    }
    {
        MutexGuard g(sweep_mu_);
        if (shutdown_) {
            // Do not start new sweeps during teardown; shutdown() is
            // waiting to claim this token.
            sweep_in_progress_.store(false, std::memory_order_release);
            return false;
        }
        sweep_requested_ = false;
        ++sweeps_started_;
        // msw-relaxed(sweeper-token): heartbeat clear under sweep_mu_.
        sweep_request_ns_.store(0, std::memory_order_relaxed);
    }
    sweep_fn_();
    {
        MutexGuard g(sweep_mu_);
        // msw-relaxed(sweeper-token): written under sweep_mu_; waiters
        // re-read them under the same mutex in their cv predicates.
        sweeps_done_.fetch_add(1, std::memory_order_relaxed);
        pause_flag_.store(false, std::memory_order_relaxed);
        sweep_in_progress_.store(false, std::memory_order_release);
    }
    sweep_done_cv_.notify_all();
    return true;
}

void
SweepController::check_watchdog()
{
    if (config_.watchdog_timeout_ms == 0 || tls_sweep_context ||
        !config_.background) {
        return;
    }
    // msw-relaxed(sweeper-token): unlocked watchdog heartbeat read; a
    // stale value only delays the fallback by one check period.
    const std::uint64_t req =
        sweep_request_ns_.load(std::memory_order_relaxed);
    if (req == 0 || sweep_in_progress_.load(std::memory_order_acquire))
        return;
    // msw-relaxed(sweeper-token): the latch is advisory (log-once and
    // early-out); the fallback sweep itself re-takes the real token.
    const bool overdue =
        watchdog_tripped_.load(std::memory_order_relaxed) ||
        monotonic_ns() - req >=
            config_.watchdog_timeout_ms * 1'000'000ull;
    if (!overdue)
        return;
    // msw-relaxed(sweeper-token): latch RMW needs atomicity only (one
    // thread wins the warning log); no data is published through it.
    if (!watchdog_tripped_.exchange(true, std::memory_order_relaxed)) {
        MSW_LOG_WARN("sweeper watchdog: request unserved for %llu ms; "
                     "falling back to synchronous sweeps",
                     static_cast<unsigned long long>(
                         config_.watchdog_timeout_ms));
    }
    if (run_sweep_now()) {
        stats_->add(Stat::kWatchdogFallbacks);
        metrics::telemetry().trace_event(
            metrics::TraceEvent::kWatchdogFallback);
    }
}

void
SweepController::maybe_pause()
{
    // msw-relaxed(sweeper-token): advisory fast-path peek; a missed
    // set is caught by the next allocation, a missed clear by the
    // timed wait below.
    if (tls_sweep_context ||
        !pause_flag_.load(std::memory_order_relaxed)) {
        return;
    }
    const std::uint64_t t0 = monotonic_ns();
    {
        // A dead sweeper (e.g. a fork child whose respawn failed) never
        // clears the flag or notifies, so the wait must not outlive the
        // watchdog deadline — check_watchdog() below self-serves then.
        const std::uint64_t cap_ms = config_.watchdog_timeout_ms != 0
                                         ? config_.watchdog_timeout_ms
                                         : 2000;
        UniqueLock g(sweep_mu_);
        // msw-relaxed(sweeper-token): RMW atomicity suffices; the
        // shutdown drain polls the release/acquire-paired count.
        control_waiters_.fetch_add(1, std::memory_order_relaxed);
        sweep_done_cv_.wait_for(g, std::chrono::milliseconds(cap_ms),
                                [&]() MSW_REQUIRES(sweep_mu_) {
                                    // msw-relaxed(sweeper-token): read
                                    // under sweep_mu_ by the cv wait.
                                    return shutdown_ ||
                                           !pause_flag_.load(
                                               std::memory_order_relaxed);
                                });
        control_waiters_.fetch_sub(1, std::memory_order_release);
    }
    const std::uint64_t paused_ns = monotonic_ns() - t0;
    stats_->add(Stat::kPauseNs, paused_ns);
    // Only reached when the thread actually paused, so this is off the
    // allocation fast path; the telemetry gate keeps it one relaxed
    // load when disabled.
    metrics::Telemetry& tele = metrics::telemetry();
    if (tele.on()) {
        tele.pause_ns.record(paused_ns);
        tele.trace.push(metrics::TraceEvent::kAllocPause, paused_ns);
    }
    // A stalled sweeper never clears the pause flag — make sure progress
    // is still possible before returning to the allocation path.
    check_watchdog();
}

void
SweepController::wait_for_sweep_completion(std::uint64_t timeout_ms)
{
    UniqueLock g(sweep_mu_);
    // msw-relaxed(sweeper-token): RMW atomicity suffices; the shutdown
    // drain polls the release/acquire-paired count.
    control_waiters_.fetch_add(1, std::memory_order_relaxed);
    sweep_done_cv_.wait_for(
        g, std::chrono::milliseconds(timeout_ms),
        [&]() MSW_REQUIRES(sweep_mu_) {
            // msw-relaxed(sweeper-token): progress poll on a timed
            // wait; the token's real edges are its CAS/release pair.
            return shutdown_ ||
                   !sweep_in_progress_.load(std::memory_order_relaxed);
        });
    control_waiters_.fetch_sub(1, std::memory_order_release);
}

void
SweepController::force_sweep()
{
    if (!config_.background) {
        run_sweep_now();
        return;
    }
    ensure_sweeper();
    // msw-relaxed(sweeper-token): RMW atomicity suffices; the shutdown
    // drain polls the release/acquire-paired count.
    control_waiters_.fetch_add(1, std::memory_order_relaxed);
    {
        UniqueLock g(sweep_mu_);
        if (shutdown_) {
            control_waiters_.fetch_sub(1, std::memory_order_release);
            return;
        }
        // Sweeps finish in the order they start, so once sweeps_done_
        // reaches this, a sweep that began after this call has finished.
        const std::uint64_t target = sweeps_started_ + 1;
        sweep_requested_ = true;
        // msw-relaxed(sweeper-token): heartbeat stamp under sweep_mu_;
        // the unlocked watchdog read tolerates one period of staleness.
        if (sweep_request_ns_.load(std::memory_order_relaxed) == 0)
            sweep_request_ns_.store(monotonic_ns(),
                                    std::memory_order_relaxed);
        sweep_cv_.notify_all();
        const auto timeout = std::chrono::milliseconds(
            config_.watchdog_timeout_ms != 0 ? config_.watchdog_timeout_ms
                                             : config_.wait_poll_ms);
        for (;;) {
            const bool done = sweep_done_cv_.wait_for(
                g, timeout, [&]() MSW_REQUIRES(sweep_mu_) {
                    // msw-relaxed(sweeper-token): cv predicate under
                    // sweep_mu_, which the incrementing side holds.
                    return shutdown_ ||
                           sweeps_done_.load(std::memory_order_relaxed) >=
                               target;
                });
            if (done)
                break;
            // Timed out: the sweeper may be stalled or dead. Sweep on
            // this thread instead of hanging the caller.
            g.unlock();
            if (run_sweep_now()) {
                stats_->add(Stat::kWatchdogFallbacks);
                metrics::telemetry().trace_event(
                    metrics::TraceEvent::kWatchdogFallback);
            }
            g.lock();
            // msw-relaxed(sweeper-token): re-read under sweep_mu_,
            // which the incrementing side holds.
            if (shutdown_ ||
                sweeps_done_.load(std::memory_order_relaxed) >= target) {
                break;
            }
        }
    }
    control_waiters_.fetch_sub(1, std::memory_order_release);
}

void
SweepController::wait_idle()
{
    if (!config_.background)
        return;
    // msw-relaxed(sweeper-token): RMW atomicity suffices; the shutdown
    // drain polls the release/acquire-paired count.
    control_waiters_.fetch_add(1, std::memory_order_relaxed);
    {
        UniqueLock g(sweep_mu_);
        for (;;) {
            const bool done = sweep_done_cv_.wait_for(
                g, std::chrono::milliseconds(config_.wait_poll_ms),
                [&]() MSW_REQUIRES(sweep_mu_) {
                    return shutdown_ ||
                           (!sweep_requested_ &&
                            // msw-relaxed(sweeper-token): cv predicate;
                            // the token's edges are its CAS/release pair.
                            !sweep_in_progress_.load(
                                std::memory_order_relaxed));
                });
            if (done)
                break;
            // A stalled sweeper would leave the request pending forever;
            // serve it here so flush() keeps its completion guarantee.
            g.unlock();
            run_sweep_now();
            g.lock();
        }
    }
    control_waiters_.fetch_sub(1, std::memory_order_release);
}

void
SweepController::sweeper_loop()
{
    tls_sweep_context = true;
    UniqueLock l(sweep_mu_);
    while (!shutdown_) {
        sweep_cv_.wait(l, [&]() MSW_REQUIRES(sweep_mu_) {
            return sweep_requested_ || shutdown_;
        });
        if (shutdown_)
            break;
        if (failpoint_should_fail(Failpoint::kSweeperStall)) {
            // Play dead: leave the request pending (so the watchdog can
            // see it age) and re-check once the failpoint lets go.
            sweep_cv_.wait_for(l, std::chrono::milliseconds(10),
                               [&]() MSW_REQUIRES(sweep_mu_) {
                                   return shutdown_;
                               });
            continue;
        }
        bool expected = false;
        if (fork_pending_.load(std::memory_order_acquire) ||
            !sweep_in_progress_.compare_exchange_strong(
                expected, true, std::memory_order_acquire)) {
            // A watchdog fallback owns the sweep, or a fork is
            // quiescing; either clears the request / gate and notifies
            // (or we re-check) when done.
            sweep_done_cv_.wait_for(l, std::chrono::milliseconds(1));
            continue;
        }
        sweep_requested_ = false;
        ++sweeps_started_;
        // Heartbeat: the request is being served, so the sweeper is
        // alive again — clear the stall latch.
        // msw-relaxed(sweeper-token): written under sweep_mu_; the
        // unlocked watchdog read tolerates one period of staleness.
        sweep_request_ns_.store(0, std::memory_order_relaxed);
        watchdog_tripped_.store(false, std::memory_order_relaxed);
        l.unlock();
        sweep_fn_();
        l.lock();
        sweep_in_progress_.store(false, std::memory_order_release);
        // msw-relaxed(sweeper-token): written under sweep_mu_; waiters
        // re-read them under the same mutex in their cv predicates.
        pause_flag_.store(false, std::memory_order_relaxed);
        sweeps_done_.fetch_add(1, std::memory_order_relaxed);
        sweep_done_cv_.notify_all();
    }
}

}  // namespace msw::core
