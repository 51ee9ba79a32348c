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

/** Period of the force/flush waits when the watchdog is off. */
constexpr std::uint64_t kWaitPollMs = 500;

/** Longest allocation pause when the watchdog is off. */
constexpr std::uint64_t kPauseCapMs = 2000;

/** control_waiters_' stop bit: shutdown() is past its last sweep, and no
    wait may enter. */
constexpr int kWaiterStop = 1 << 30;

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
        // No sweep serves a request from here on, so none is pending:
        // every later request_sweep() takes the locked path and sees
        // shutdown_.
        // msw-relaxed(sweeper-token): mirror of sweep_requested_, as in
        // request_sweep().
        request_pending_.store(false, std::memory_order_relaxed);
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

    // No sweep is in flight now, nor can one start, so a control call may
    // return without waiting: from here on WaiterGuard refuses every
    // call, and the drain below waits only for the ones already inside.
    // RMW atomicity orders the stop against every WaiterGuard CAS; the
    // release publishes the token claim (and so every sweep's end) to the
    // refused, and the drain's acquire load pairs with exits.
    control_waiters_.fetch_or(kWaiterStop, std::memory_order_release);
    // Drain control-path waiters that entered before the stop, so no
    // thread is left blocked on state the owner destroys.
    while (control_waiters_.load(std::memory_order_acquire) != kWaiterStop) {
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
    // subsystem locks. The gate comes first — execute_sweep() takes the
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
        // msw-relaxed(fork-window): as above — single-threaded child.
        request_pending_.store(false, std::memory_order_relaxed);
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

class SweepController::WaiterGuard
{
  public:
    /** Enter the count, unless shutdown() has set the stop bit. */
    explicit WaiterGuard(std::atomic<int>* count) : count_(count)
    {
        // Acquire pairs with the stop's release: a refused caller sees
        // the last sweep's end, e.g. before its thread frees a stack that
        // sweep scanned.
        int n = count_->load(std::memory_order_acquire);
        for (;;) {
            entered_ = (n & kWaiterStop) == 0;
            // msw-cas(sweeper-token): a plain count, no ABA to fear; RMW
            // atomicity orders entry and the stop bit, and the drain
            // polls the release-paired exits.
            if (!entered_ || count_->compare_exchange_weak(
                                 n, n + 1, std::memory_order_acquire))
                break;
        }
    }
    ~WaiterGuard()
    {
        if (entered_)
            count_->fetch_sub(1, std::memory_order_release);
    }

    /** False once shutdown() has set the stop bit: no sweep is left to
        wait for, and the caller must return at once. */
    bool entered() const { return entered_; }

  private:
    std::atomic<int>* count_;
    bool entered_;
};

bool
SweepController::ticket_done(std::uint64_t ticket) const
{
    // msw-relaxed(sweeper-token): read under sweep_mu_, which
    // execute_sweep() holds when it advances the done ticket.
    return sweeps_done_.load(std::memory_order_relaxed) >= ticket;
}

template <typename Done>
void
SweepController::await(std::uint64_t period_ms, OnMiss on_miss, Done done)
{
    const auto period = std::chrono::milliseconds(period_ms);
    UniqueLock g(sweep_mu_);
    while (!sweep_done_cv_.wait_for(g, period, done)) {
        if (on_miss == OnMiss::kReturn)
            return;
        if (on_miss == OnMiss::kServe) {
            // The sweeper missed the period: it may be stalled or dead.
            // Serve the request on this thread instead of hanging.
            g.unlock();
            execute_sweep(Runner::kFallback);
            g.lock();
        }
    }
}

// msw-analyze: slow-path(only once quarantine passes its trigger: posting
// the request, or running the sweep when synchronous, is the point of it)
void
SweepController::request_sweep(bool pause_allocations)
{
    if (!config_.background) {
        run_sweep_now();
        return;
    }
    // Past the trigger, every free asks again until the sweep claims the
    // request: while one is pending (and the gate is already shut when
    // this one would shut it), posting it again changes nothing.
    // msw-relaxed(sweeper-token): advisory peek; a stale "pending" is a
    // request the sweep that cleared it has not locked in yet, and the
    // next free past the trigger asks again.
    if (request_pending_.load(std::memory_order_relaxed) &&
        (!pause_allocations || pause_flag_.load(std::memory_order_relaxed))) {
        check_watchdog();
        return;
    }
    ensure_sweeper();
    {
        MutexGuard g(sweep_mu_);
        sweep_requested_ = true;
        // msw-relaxed(sweeper-token): mirror of sweep_requested_, written
        // under sweep_mu_ with it; only request_sweep() peeks unlocked.
        request_pending_.store(!shutdown_, std::memory_order_relaxed);
        // Watchdog heartbeat: stamp the oldest unserved request (the
        // sweep that claims it clears this).
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
SweepController::execute_sweep(Runner runner)
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
        // No new sweep during teardown (shutdown() is waiting to claim
        // this token), nor on behalf of a request already claimed.
        if (shutdown_ || (runner != Runner::kCaller && !sweep_requested_)) {
            sweep_in_progress_.store(false, std::memory_order_release);
            return false;
        }
        sweep_requested_ = false;
        // msw-relaxed(sweeper-token): mirror of sweep_requested_, as in
        // request_sweep().
        request_pending_.store(false, std::memory_order_relaxed);
        ++sweeps_started_;
        // msw-relaxed(sweeper-token): heartbeat clear under sweep_mu_;
        // the unlocked watchdog read tolerates one period of staleness.
        sweep_request_ns_.store(0, std::memory_order_relaxed);
        // The background sweeper is serving again: clear the stall latch.
        // msw-relaxed(sweeper-token): advisory latch, as above.
        if (runner == Runner::kSweeper)
            watchdog_tripped_.store(false, std::memory_order_relaxed);
    }
    {
        // Every pass runs as sweep machinery, whoever runs it: a mutator
        // serving a fallback, forced or emergency sweep must not block
        // in the pause gate or sweep again from its own allocations, and
        // gets its own context back afterwards.
        ScopedSweepContext scoped;
        sweep_fn_();
    }
    {
        MutexGuard g(sweep_mu_);
        // msw-relaxed(sweeper-token): written under sweep_mu_; waiters
        // re-read them under the same mutex in their cv predicates.
        sweeps_done_.fetch_add(1, std::memory_order_relaxed);
        pause_flag_.store(false, std::memory_order_relaxed);
        sweep_in_progress_.store(false, std::memory_order_release);
    }
    sweep_done_cv_.notify_all();
    if (runner == Runner::kFallback) {
        stats_->add(Stat::kWatchdogFallbacks);
        metrics::telemetry().trace_event(
            metrics::TraceEvent::kWatchdogFallback);
    }
    return true;
}

bool
SweepController::run_sweep_now()
{
    return execute_sweep(Runner::kCaller);
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
    execute_sweep(Runner::kFallback);
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
    pause();
}

// msw-analyze: slow-path(only while a sweep holds allocations paused:
// the §5.7 backpressure wait is the point of it)
void
SweepController::pause()
{
    const std::uint64_t t0 = monotonic_ns();
    {
        const WaiterGuard waiter(&control_waiters_);
        if (!waiter.entered())
            return;
        // A dead sweeper (e.g. a fork child whose respawn failed) never
        // clears the flag or notifies, so the wait must not outlive the
        // watchdog deadline — check_watchdog() below self-serves then.
        await(config_.watchdog_timeout_ms != 0 ? config_.watchdog_timeout_ms
                                               : kPauseCapMs,
              OnMiss::kReturn, [&]() MSW_REQUIRES(sweep_mu_) {
                  // msw-relaxed(sweeper-token): read under sweep_mu_ by
                  // the cv wait.
                  return shutdown_ ||
                         !pause_flag_.load(std::memory_order_relaxed);
              });
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
    const WaiterGuard waiter(&control_waiters_);
    if (!waiter.entered())
        return;
    std::uint64_t ticket;
    {
        MutexGuard g(sweep_mu_);
        ticket = sweeps_started_;
    }
    await(timeout_ms != 0 ? timeout_ms : kWaitPollMs,
          timeout_ms != 0 ? OnMiss::kReturn : OnMiss::kWait,
          [&]() MSW_REQUIRES(sweep_mu_) { return ticket_done(ticket); });
}

void
SweepController::force_sweep()
{
    if (!config_.background) {
        run_sweep_now();
        return;
    }
    const WaiterGuard waiter(&control_waiters_);
    if (!waiter.entered())
        return;
    std::uint64_t ticket;
    {
        MutexGuard g(sweep_mu_);
        // Sweeps finish in the order they start, so once sweeps_done_
        // reaches this, a sweep that began after this call has finished.
        ticket = sweeps_started_ + 1;
    }
    request_sweep(/*pause_allocations=*/false);
    await(config_.watchdog_timeout_ms != 0 ? config_.watchdog_timeout_ms
                                           : kWaitPollMs,
          OnMiss::kServe, [&]() MSW_REQUIRES(sweep_mu_) {
              return shutdown_ || ticket_done(ticket);
          });
}

void
SweepController::wait_idle()
{
    if (!config_.background)
        return;
    const WaiterGuard waiter(&control_waiters_);
    if (!waiter.entered())
        return;
    // A stalled sweeper would leave the request pending forever; the
    // serving wait sweeps here so flush() keeps its completion guarantee.
    await(kWaitPollMs, OnMiss::kServe, [&]() MSW_REQUIRES(sweep_mu_) {
        return shutdown_ ||
               (!sweep_requested_ && ticket_done(sweeps_started_));
    });
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
        l.unlock();
        const bool ran = execute_sweep(Runner::kSweeper);
        l.lock();
        if (!ran) {
            // A fallback sweep owns the token, or a fork is quiescing;
            // either clears the request or notifies when done (or we
            // re-check after the period).
            sweep_done_cv_.wait_for(l, std::chrono::milliseconds(1));
        }
    }
}

}  // namespace msw::core
