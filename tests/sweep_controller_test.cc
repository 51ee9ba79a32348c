/**
 * @file
 * SweepController unit tests: request/serve ordering, the single-sweeper
 * invariant, watchdog fallback, the allocation-pause gate and shutdown
 * draining — the control-plane races the refactor moved out of
 * MineSweeper. Labelled tsan so the sanitizer build replays them.
 */
#include "core/sweep_controller.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/stat_cells.h"
#include "util/failpoint.h"

namespace msw::core {
namespace {

using util::Failpoint;
using util::FailpointPolicy;

TEST(SweepControllerTest, SynchronousModeRunsInline)
{
    StatCells stats;
    std::atomic<int> runs{0};
    SweepController::Config cfg;
    cfg.background = false;
    SweepController ctl(cfg, [&] { runs.fetch_add(1); }, &stats);
    ctl.start();  // no-op without a background sweeper

    ctl.request_sweep(false);
    EXPECT_EQ(runs.load(), 1);
    EXPECT_EQ(ctl.sweeps_done(), 1u);

    ctl.force_sweep();
    EXPECT_EQ(runs.load(), 2);

    // wait_idle is immediate in synchronous mode.
    ctl.wait_idle();
}

TEST(SweepControllerTest, BackgroundServesRequest)
{
    StatCells stats;
    std::atomic<int> runs{0};
    SweepController::Config cfg;
    SweepController ctl(cfg, [&] { runs.fetch_add(1); }, &stats);
    ctl.start();

    ctl.request_sweep(false);
    ctl.wait_idle();
    EXPECT_GE(runs.load(), 1);
    EXPECT_GE(ctl.sweeps_done(), 1u);
}

TEST(SweepControllerTest, ForceSweepWaitsForCompletion)
{
    StatCells stats;
    std::atomic<int> runs{0};
    SweepController::Config cfg;
    SweepController ctl(cfg, [&] { runs.fetch_add(1); }, &stats);
    ctl.start();

    for (int i = 0; i < 5; ++i) {
        const std::uint64_t before = ctl.sweeps_done();
        ctl.force_sweep();
        EXPECT_GE(ctl.sweeps_done(), before + 1);
    }
    EXPECT_GE(runs.load(), 5);
}

TEST(SweepControllerTest, SingleSweeperInvariant)
{
    StatCells stats;
    std::atomic<bool> release{false};
    std::atomic<int> concurrent{0};
    std::atomic<int> peak{0};
    SweepController::Config cfg;
    cfg.background = false;
    SweepController ctl(
        cfg,
        [&] {
            const int now = concurrent.fetch_add(1) + 1;
            int prev = peak.load();
            while (now > prev && !peak.compare_exchange_weak(prev, now)) {
            }
            while (!release.load(std::memory_order_acquire))
                std::this_thread::yield();
            concurrent.fetch_sub(1);
        },
        &stats);

    std::thread holder([&] { EXPECT_TRUE(ctl.run_sweep_now()); });
    // Wait until the holder is inside the sweep, then every other
    // attempt must bounce off the CAS.
    while (concurrent.load() == 0)
        std::this_thread::yield();
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(ctl.run_sweep_now());
    release.store(true, std::memory_order_release);
    holder.join();
    EXPECT_EQ(peak.load(), 1);
    EXPECT_EQ(ctl.sweeps_done(), 1u);
    // The finished sweep released the token.
    EXPECT_TRUE(ctl.run_sweep_now());
}

TEST(SweepControllerTest, WatchdogFallsBackToSynchronousSweep)
{
    StatCells stats;
    std::atomic<int> runs{0};
    SweepController::Config cfg;
    cfg.watchdog_timeout_ms = 20;
    SweepController ctl(cfg, [&] { runs.fetch_add(1); }, &stats);
    ctl.start();

    // Sweeper plays dead while armed: requests age unserved.
    util::failpoint_arm(Failpoint::kSweeperStall, FailpointPolicy::prob(1.0));
    ctl.request_sweep(false);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    // A mutator-side check past the deadline must sweep synchronously.
    ctl.check_watchdog();
    util::failpoint_disarm(Failpoint::kSweeperStall);

    EXPECT_GE(runs.load(), 1);
    EXPECT_GE(stats.read(Stat::kWatchdogFallbacks), 1u);
    ctl.wait_idle();
}

TEST(SweepControllerTest, PauseGateReleasedBySweepCompletion)
{
    StatCells stats;
    SweepController::Config cfg;
    SweepController ctl(
        cfg,
        [&] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); },
        &stats);
    ctl.start();

    ctl.request_sweep(/*pause_allocations=*/true);
    // The gate must open once the sweep completes (bounded by the gate's
    // internal 2 s cap, far above the 20 ms sweep).
    ctl.maybe_pause();
    ctl.wait_idle();
    EXPECT_GE(ctl.sweeps_done(), 1u);
    EXPECT_GT(stats.read(Stat::kPauseNs), 0u);
    // Gate open: a second call returns without waiting.
    ctl.maybe_pause();
}

TEST(SweepControllerTest, PausedRequestOverAPendingOneShutsTheGate)
{
    // request_sweep() skips re-posting a request that is already
    // pending, but not when this one asks for a pause the pending one
    // did not: the gate must still shut.
    StatCells stats;
    SweepController ctl(SweepController::Config{}, [] {}, &stats);
    ctl.start();

    // A stalled sweeper leaves the first request pending.
    util::failpoint_arm(Failpoint::kSweeperStall, FailpointPolicy::prob(1.0));
    ctl.request_sweep(/*pause_allocations=*/false);
    ctl.request_sweep(/*pause_allocations=*/true);
    constexpr auto kStall = std::chrono::milliseconds(30);
    std::thread unstall([&] {
        std::this_thread::sleep_for(kStall);
        util::failpoint_disarm(Failpoint::kSweeperStall);
    });
    // Shut, the gate holds this thread until the sweeper serves the
    // request, which it can only do once the stall is lifted.
    ctl.maybe_pause();
    unstall.join();
    EXPECT_GE(stats.read(Stat::kPauseNs),
              std::uint64_t{std::chrono::nanoseconds(kStall).count()} / 2)
        << "the paused request did not shut the gate";
    ctl.wait_idle();
    EXPECT_GE(ctl.sweeps_done(), 1u);
}

TEST(SweepControllerTest, ForceSweepWaitsForASweepStartedAfterTheCall)
{
    // A sweep already in flight when force_sweep() is called may have
    // marked before the caller's changes, so it must not satisfy the
    // wait: only a sweep that starts after the call may.
    StatCells stats;
    std::atomic<bool> latch{false};
    std::atomic<int> started{0};
    std::atomic<int> finished{0};
    SweepController ctl(
        SweepController::Config{},
        [&] {
            if (started.fetch_add(1) == 0) {
                while (!latch.load(std::memory_order_acquire))
                    std::this_thread::yield();
            }
            finished.fetch_add(1);
        },
        &stats);
    ctl.start();

    // Sweep 1 runs on a caller thread and holds on the latch; nothing
    // has requested a sweep, so the background sweeper stays asleep.
    std::thread holder([&] { EXPECT_TRUE(ctl.run_sweep_now()); });
    while (started.load() == 0)
        std::this_thread::yield();

    // The sweeper evaluates kSweeperStall only once a request wakes it,
    // and force_sweep() takes its ticket before it posts its request: the
    // one hit of the burst means the ticket is taken.
    const std::uint64_t hits0 = util::failpoint_hits(Failpoint::kSweeperStall);
    util::failpoint_arm(Failpoint::kSweeperStall, FailpointPolicy::burst(1));
    int finished_at_return = -1;
    std::thread forcer([&] {
        ctl.force_sweep();
        finished_at_return = finished.load();
    });
    while (util::failpoint_hits(Failpoint::kSweeperStall) == hits0)
        std::this_thread::yield();

    latch.store(true, std::memory_order_release);
    holder.join();
    forcer.join();
    util::failpoint_disarm(Failpoint::kSweeperStall);
    // Sweep 1 alone would leave finished at 1.
    EXPECT_GE(finished_at_return, 2);
    EXPECT_GE(ctl.sweeps_done(), 2u);
}

TEST(SweepControllerTest, SweepContextThreadsNeverPause)
{
    StatCells stats;
    SweepController::Config cfg;
    SweepController ctl(cfg, [] {}, &stats);
    ctl.start();

    EXPECT_FALSE(SweepController::in_sweep_context());
    {
        SweepController::ScopedSweepContext outer;
        EXPECT_TRUE(SweepController::in_sweep_context());
        {
            SweepController::ScopedSweepContext inner;
            EXPECT_TRUE(SweepController::in_sweep_context());
        }
        // Restore, not clear: nested scopes keep the outer context.
        EXPECT_TRUE(SweepController::in_sweep_context());
        // Sweep-machinery threads skip the gate even while it is closed.
        ctl.request_sweep(true);
        ctl.maybe_pause();
    }
    EXPECT_FALSE(SweepController::in_sweep_context());
    ctl.wait_idle();
}

TEST(SweepControllerTest, SweepFunctionRunsInSweepContext)
{
    // A mutator running a sweep itself (forced, fallback or emergency)
    // marks as sweep machinery for the whole pass, then gets its own
    // context back.
    StatCells stats;
    SweepController::Config cfg;
    cfg.background = false;
    bool in_context = false;
    SweepController ctl(
        cfg, [&] { in_context = SweepController::in_sweep_context(); },
        &stats);
    ctl.start();

    ASSERT_FALSE(SweepController::in_sweep_context());
    ASSERT_TRUE(ctl.run_sweep_now());
    EXPECT_TRUE(in_context);
    EXPECT_FALSE(SweepController::in_sweep_context());
}

TEST(SweepControllerTest, ShutdownDrainsConcurrentControlCalls)
{
    StatCells stats;
    std::atomic<bool> stop{false};
    auto ctl = std::make_unique<SweepController>(
        SweepController::Config{}, [] {}, &stats);
    ctl->start();

    // Hammer every control entry point while shutdown races them; the
    // destructor-path drain must leave no thread blocked.
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i) {
        threads.emplace_back([&, i] {
            while (!stop.load(std::memory_order_acquire)) {
                ctl->request_sweep(i % 2 == 0);
                ctl->force_sweep();
                ctl->maybe_pause();
                ctl->wait_for_sweep_completion(1);
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    // The drain waits only for calls that entered before shutdown began:
    // threads still looping cannot hold it off.
    const auto t0 = std::chrono::steady_clock::now();
    ctl->shutdown();
    const auto took = std::chrono::steady_clock::now() - t0;
    stop.store(true, std::memory_order_release);
    for (auto& t : threads)
        t.join();
    EXPECT_LT(took, std::chrono::milliseconds(250));

    // Post-shutdown control calls are safe no-ops.
    EXPECT_FALSE(ctl->run_sweep_now());
    ctl->force_sweep();
    ctl.reset();
}

TEST(SweepControllerTest, ShutdownDoesNotCutShortAWaitForAStartedSweep)
{
    // A thread leaving the runtime waits for the sweep in flight before
    // its stack goes away; shutdown() racing that wait must not end it
    // early, whether the wait began before shutdown() or after.
    StatCells stats;
    std::atomic<bool> in_sweep{false};
    std::atomic<bool> release{false};
    std::atomic<bool> swept{false};
    SweepController ctl(
        SweepController::Config{},
        [&] {
            in_sweep.store(true);
            while (!release.load())
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            swept.store(true);
        },
        &stats);
    ctl.start();
    ctl.request_sweep(false);
    while (!in_sweep.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    std::atomic<int> returned{0};
    std::atomic<int> returned_early{0};
    auto waiter = [&] {
        ctl.wait_for_sweep_completion(0);
        if (!swept.load())
            returned_early.fetch_add(1);
        returned.fetch_add(1);
    };
    std::thread before(waiter);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::thread stopper([&] { ctl.shutdown(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::thread after(waiter);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(returned.load(), 0);

    release.store(true);
    before.join();
    after.join();
    stopper.join();
    EXPECT_EQ(returned.load(), 2);
    EXPECT_EQ(returned_early.load(), 0);
}

TEST(SweepControllerTest, ShutdownIsIdempotent)
{
    StatCells stats;
    std::atomic<int> runs{0};
    SweepController ctl(SweepController::Config{},
                        [&] { runs.fetch_add(1); }, &stats);
    ctl.start();
    ctl.force_sweep();
    ctl.shutdown();
    ctl.shutdown();
    EXPECT_GE(runs.load(), 1);
    EXPECT_FALSE(ctl.run_sweep_now());
}

}  // namespace
}  // namespace msw::core
