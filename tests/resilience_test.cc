// Resilience tests: memory-pressure graceful degradation, the sweeper
// watchdog, deferred-unmap queue overflow, shutdown races, and a
// fault-injection soak asserting the UAF guarantees hold while VM
// operations fail underneath the allocator.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/minesweeper.h"
#include "util/failpoint.h"
#include "workload/attack.h"
#include "workload/executor.h"
#include "workload/system.h"

namespace msw::core {
namespace {

using util::Failpoint;
using util::FailpointPolicy;

/** Process-global failpoints: leave nothing armed behind a test. */
class ResilienceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        util::failpoint_disarm_all();
        util::failpoint_reset_counters();
    }

    void
    TearDown() override
    {
        util::failpoint_disarm_all();
        util::failpoint_reset_counters();
    }

    static bool
    wait_until(const std::function<bool()>& pred, unsigned timeout_ms)
    {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(timeout_ms);
        while (std::chrono::steady_clock::now() < deadline) {
            if (pred())
                return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return pred();
    }
};

/** Options that keep every sweep under explicit test control. */
Options
manual_sweep_options()
{
    Options o;
    o.sweep_threshold = 1e9;
    o.min_sweep_bytes = ~std::size_t{0};
    o.pause_factor = 0;
    return o;
}

TEST_F(ResilienceTest, EmergencySweepRecoversExhaustedHeap)
{
    Options o = manual_sweep_options();
    o.jade.heap_bytes = 64 << 20;
    MineSweeper ms(o);

    // Quarantine ~48 MiB of dead large blocks. Nothing references them,
    // but with sweeps disabled their extents stay unavailable.
    constexpr std::size_t kBlock = 1 << 20;
    for (int i = 0; i < 48; ++i) {
        void* p = ms.alloc(kBlock);
        ASSERT_NE(p, nullptr);
        ms.free(p);
    }
    ASSERT_EQ(ms.sweep_stats().sweeps, 0u);

    // The heap cannot hold another ~32 MiB live without reclaiming the
    // quarantine: alloc() must run the emergency path, not fail or abort.
    std::vector<void*> live;
    for (int i = 0; i < 32; ++i) {
        void* p = ms.alloc(kBlock);
        ASSERT_NE(p, nullptr) << "emergency reclaim should have freed "
                                 "unreferenced quarantine, block "
                              << i;
        std::memset(p, 0x11, kBlock);
        live.push_back(p);
    }

    const SweepStats st = ms.sweep_stats();
    EXPECT_GT(st.emergency_sweeps, 0u);
    EXPECT_GT(st.commit_retries, 0u);
    EXPECT_EQ(st.oom_returns, 0u);
    for (void* p : live)
        ms.free(p);
}

TEST_F(ResilienceTest, NullptrOnlyAfterReclaimIsExhausted)
{
    Options o = manual_sweep_options();
    o.jade.heap_bytes = 32 << 20;
    o.alloc_retry_attempts = 2;
    o.alloc_retry_backoff_us = 1;
    MineSweeper ms(o);

    // Fill the heap with *live* blocks: reclaim cannot help here, so the
    // allocator must eventually return nullptr — and must not abort.
    std::vector<void*> live;
    for (;;) {
        void* p = ms.alloc(1 << 20);
        if (p == nullptr)
            break;
        live.push_back(p);
        ASSERT_LT(live.size(), 100u) << "32 MiB heap cannot hold this";
    }
    const SweepStats st = ms.sweep_stats();
    EXPECT_GT(st.oom_returns, 0u);
    EXPECT_GT(st.emergency_sweeps, 0u)
        << "nullptr must be preceded by reclaim attempts";

    // Degradation is not terminal: freeing memory restores service.
    ASSERT_GE(live.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        ms.free(live.back());
        live.pop_back();
    }
    void* again = ms.alloc(1 << 20);
    EXPECT_NE(again, nullptr)
        << "alloc must recover once quarantine becomes reclaimable";
    if (again != nullptr)
        ms.free(again);
    for (void* p : live)
        ms.free(p);
}

TEST_F(ResilienceTest, WatchdogFallsBackWhenSweeperStalls)
{
    util::failpoint_arm(Failpoint::kSweeperStall, FailpointPolicy::prob(1.0));

    Options o;
    o.watchdog_timeout_ms = 50;
    o.sweep_threshold = 0.01;
    o.min_sweep_bytes = 64 << 10;
    o.pause_factor = 0;
    MineSweeper ms(o);

    // Churn long enough for a sweep request to age past the deadline
    // while the background sweeper plays dead.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    SweepStats st;
    do {
        for (int i = 0; i < 128; ++i) {
            void* p = ms.alloc(4096);
            ASSERT_NE(p, nullptr);
            ms.free(p);
        }
        st = ms.sweep_stats();
    } while (st.watchdog_fallbacks == 0 &&
             std::chrono::steady_clock::now() < deadline);

    EXPECT_GT(st.watchdog_fallbacks, 0u)
        << "mutators must take over sweeping from a stalled sweeper";
    EXPECT_GT(st.sweeps, 0u);
    EXPECT_GT(st.failpoint_hits[static_cast<unsigned>(
                  Failpoint::kSweeperStall)],
              0u);

    // Quarantine stays bounded by the fallback sweeps: after draining,
    // another full churn round must still be serviceable.
    util::failpoint_disarm(Failpoint::kSweeperStall);
    ms.force_sweep();  // background sweeper must have recovered
    void* p = ms.alloc(1 << 16);
    EXPECT_NE(p, nullptr);
    ms.free(p);
}

TEST_F(ResilienceTest, PendingUnmapOverflowFallsBackToZeroing)
{
    Options o = manual_sweep_options();
    o.max_pending_unmaps = 4;
    MineSweeper ms(o);

    constexpr std::size_t kLarge = 256 << 10;
    std::vector<unsigned char*> blocks;
    for (int i = 0; i < 12; ++i) {
        auto* p = static_cast<unsigned char*>(ms.alloc(kLarge));
        ASSERT_NE(p, nullptr);
        std::memset(p, 0xee, kLarge);
        blocks.push_back(p);
    }

    // Hold a sweep open so frees land while sweep_active_ is set.
    util::failpoint_arm(Failpoint::kSweepDelay,
                        FailpointPolicy::burst(2000));
    std::thread sweeper([&] { ms.force_sweep(); });
    ASSERT_TRUE(wait_until(
        [] {
            return util::failpoint_evaluations(Failpoint::kSweepDelay) > 0;
        },
        5000))
        << "sweep never reached the delay hook";

    // 12 large frees against a 4-entry queue: 4 defer their unmap, 8
    // overflow. Overflowing entries must stay quarantined, mapped, and be
    // zeroed — never dropped, never left with stale contents.
    const std::uint64_t unmapped_before =
        ms.sweep_stats().unmapped_entries;
    for (unsigned char* p : blocks)
        ms.free(p);
    EXPECT_EQ(ms.sweep_stats().unmapped_entries - unmapped_before, 4u);
    for (unsigned char* p : blocks)
        EXPECT_TRUE(ms.in_quarantine(p));
    for (std::size_t i = 4; i < blocks.size(); ++i) {
        // Overflowed entries are readable (still mapped) and zero-filled.
        EXPECT_EQ(blocks[i][0], 0u) << "entry " << i;
        EXPECT_EQ(blocks[i][kLarge - 1], 0u) << "entry " << i;
    }

    util::failpoint_disarm(Failpoint::kSweepDelay);
    sweeper.join();

    // Nothing references the blocks: a full flush must release them all,
    // including the overflowed ones.
    ms.flush();
    ms.force_sweep();
    for (unsigned char* p : blocks)
        EXPECT_FALSE(ms.in_quarantine(p));
}

TEST_F(ResilienceTest, FailedDeferredDecommitReleasesCommitted)
{
    Options o = manual_sweep_options();
    // No post-sweep purge: the released range's state is the release's.
    o.purging = false;
    MineSweeper ms(o);

    constexpr std::size_t kLarge = 256 << 10;
    auto* p = static_cast<unsigned char*>(ms.alloc(kLarge));
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xee, kLarge);
    const std::size_t committed = ms.substrate().stats().committed_bytes;

    // Hold a sweep open so the free defers its decommit, and make every
    // deferred decommit fail when the queue drains. (Armed before the
    // sweep starts: nothing decommits until the drain.)
    util::failpoint_arm(Failpoint::kVmDecommit, FailpointPolicy::prob(1.0));
    util::failpoint_arm(Failpoint::kSweepDelay,
                        FailpointPolicy::burst(2000));
    std::thread sweeper([&] { ms.force_sweep(); });
    ASSERT_TRUE(wait_until(
        [] {
            return util::failpoint_evaluations(Failpoint::kSweepDelay) > 0;
        },
        5000))
        << "sweep never reached the delay hook";
    const std::uint64_t unmapped_before =
        ms.sweep_stats().unmapped_entries;
    ms.free(p);
    EXPECT_EQ(ms.sweep_stats().unmapped_entries - unmapped_before, 1u)
        << "the free should have queued a deferred unmap";
    util::failpoint_disarm(Failpoint::kSweepDelay);
    sweeper.join();
    EXPECT_GT(util::failpoint_hits(Failpoint::kVmDecommit), 0u);
    util::failpoint_disarm(Failpoint::kVmDecommit);
    ASSERT_TRUE(ms.in_quarantine(p));
    // The entry kept its pages: still readable.
    EXPECT_EQ(p[kLarge / 2], 0xee);

    // Released with Entry::unmapped set on committed pages, the range
    // goes back committed, and both ledgers still count it.
    ms.force_sweep();
    ASSERT_FALSE(ms.in_quarantine(p));
    EXPECT_EQ(ms.substrate().stats().committed_bytes, committed);
    EXPECT_EQ(ms.stats().committed_bytes, committed);
    auto* q = static_cast<unsigned char*>(ms.alloc(kLarge));
    ASSERT_NE(q, nullptr);
    std::memset(q, 1, kLarge);
    ms.free(q);
}

TEST_F(ResilienceTest, DestructorRacesInFlightForceSweep)
{
    for (int round = 0; round < 3; ++round) {
        util::failpoint_disarm_all();
        Options o = manual_sweep_options();
        auto ms = std::make_unique<MineSweeper>(o);
        std::vector<void*> dead;
        for (int i = 0; i < 64; ++i) {
            void* p = ms->alloc(32 << 10);
            ASSERT_NE(p, nullptr);
            ms->free(p);
        }

        // Stretch the sweep so destruction lands while it is in flight.
        util::failpoint_reset_counters();
        util::failpoint_arm(Failpoint::kSweepDelay,
                            FailpointPolicy::burst(50));
        // The thread gets the raw pointer, never the unique_ptr that
        // ms.reset() below writes.
        MineSweeper* raw = ms.get();
        std::thread t([raw] { raw->force_sweep(); });
        ASSERT_TRUE(wait_until(
            [] {
                return util::failpoint_evaluations(Failpoint::kSweepDelay) >
                       0;
            },
            5000));

        // The waiter is inside force_sweep() now: the destructor must
        // drain it safely and finish without hanging or crashing.
        ms.reset();
        t.join();
    }
}

TEST_F(ResilienceTest, UnregisterWhileSweepIsMarking)
{
    Options o = manual_sweep_options();
    o.mode = Mode::kMostlyConcurrent;
    MineSweeper ms(o);

    std::atomic<bool> registered{false};
    std::thread mutator([&] {
        ms.register_mutator_thread();
        registered.store(true);
        // Free traffic whose stack frames the sweep may have snapshotted.
        for (int i = 0; i < 32; ++i) {
            void* p = ms.alloc(8 << 10);
            ASSERT_NE(p, nullptr);
            ms.free(p);
        }
        while (util::failpoint_evaluations(Failpoint::kSweepDelay) == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        // Sweep is mid-flight: unregistration must synchronise with it,
        // not return while the sweeper can still scan this stack.
        ms.unregister_mutator_thread();
    });
    while (!registered.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    util::failpoint_arm(Failpoint::kSweepDelay,
                        FailpointPolicy::burst(30));
    ms.force_sweep();
    mutator.join();
    ms.force_sweep();  // second sweep after the thread left: no stale stack
}

// The out-of-memory ladder's purge must wait out an open scan: the
// marker scans the committed runs it listed when the scan began, and a
// page decommitted under it faults the sweep (Marker::scan_chunk took a
// SIGSEGV that way in CommitFailureSoakKeepsGuarantees, about once in
// 400 runs four at a time).
TEST_F(ResilienceTest, EmergencyPurgeWaitsOutAnOpenScan)
{
    Options o = manual_sweep_options();
    o.alloc_retry_attempts = 2;  // one emergency reclaim
    o.alloc_retry_backoff_us = 1;
    MineSweeper ms(o);

    // Committed free extents for a purge to take: the sweep releases the
    // freed blocks, and the post-sweep purge leaves the slabs they
    // emptied committed for one epoch.
    std::vector<void*> blocks;
    for (int i = 0; i < 4096; ++i)
        blocks.push_back(ms.alloc(1024));
    for (void* p : blocks)
        ms.free(p);
    ms.force_sweep();

    // Hold the next sweep inside its scan.
    ms.free(ms.alloc(64));
    util::failpoint_arm(Failpoint::kSweepDelay, FailpointPolicy::prob(1.0));
    std::thread sweep([&] { ms.force_sweep(); });
    ASSERT_TRUE(wait_until(
        [] {
            return util::failpoint_evaluations(Failpoint::kSweepDelay) > 0;
        },
        5000));
    const std::uint64_t purged = ms.sweep_stats().pages_purged;

    util::failpoint_arm(Failpoint::kExtentGrow, FailpointPolicy::prob(1.0));
    EXPECT_EQ(ms.alloc(std::size_t{64} << 20), nullptr);
    util::failpoint_disarm(Failpoint::kExtentGrow);
    EXPECT_EQ(ms.sweep_stats().emergency_sweeps, 1u);
    EXPECT_EQ(ms.sweep_stats().pages_purged, purged)
        << "the emergency purge decommitted pages under an open scan";

    util::failpoint_disarm(Failpoint::kSweepDelay);
    sweep.join();
}

TEST_F(ResilienceTest, CommitFailureSoakKeepsGuarantees)
{
    util::failpoint_seed(2026);
    util::failpoint_arm(Failpoint::kVmCommit, FailpointPolicy::prob(0.05));

    {
        workload::System sys =
            workload::make_system(workload::SystemKind::kMineSweeper);

        // Representative churn (pointer-bearing objects, large tail).
        workload::Profile profile;
        profile.name = "soak";
        profile.ticks = 4000;
        profile.allocs_per_tick = 4;
        profile.large_prob = 0.02;
        const workload::WorkloadResult wr =
            workload::run_profile(sys, profile);
        EXPECT_GT(wr.allocs, 0u);

        // The injection must actually have exercised the failure paths.
        EXPECT_GT(util::failpoint_hits(Failpoint::kVmCommit), 0u);

        // UAF guarantees survive the fault storm: the dangling pointer
        // never sees attacker data, and double frees never alias.
        void* dangling = nullptr;
        sys.add_root(&dangling, sizeof(dangling));
        const workload::AttackResult atk =
            workload::heap_spray_attack(sys, &dangling, 512, 200);
        EXPECT_FALSE(atk.aliased);
        EXPECT_NE(atk.view, workload::AttackResult::View::kAttackerData);
        sys.remove_root(&dangling);

        EXPECT_FALSE(workload::double_free_attack(sys, 50));
        sys.flush();
    }
    util::failpoint_disarm(Failpoint::kVmCommit);
}

}  // namespace
}  // namespace msw::core
