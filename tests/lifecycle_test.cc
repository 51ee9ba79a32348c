// Process-lifecycle hardening: atfork survival (fork while allocating,
// fork while sweeping), the thread-exit auto-drain, fault
// classification and the opt-in crash reporter, and the lock-rank
// atfork bulk-acquisition window.
#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/lifecycle.h"
#include "core/minesweeper.h"
#include "quarantine/quarantine.h"
#include "util/bits.h"
#include "util/failpoint.h"
#include "util/lock_rank.h"
#include "util/rng.h"
#include "util/spin_lock.h"

namespace msw {
namespace {

using core::MineSweeper;
using core::Options;
using core::lifecycle::FaultClass;
using util::LockRank;

Options
small_options()
{
    Options o;
    o.min_sweep_bytes = 4096;  // sweep eagerly so tests see epochs move
    o.helper_threads = 2;
    o.jade.heap_bytes = std::size_t{1} << 30;
    return o;
}

/** Fork, run @p child_fn in the child, assert it _exits 0. */
template <typename Fn>
void
fork_and_check(Fn&& child_fn)
{
    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed: " << std::strerror(errno);
    if (pid == 0) {
        child_fn();
        _exit(0);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "child status " << status;
}

// Runs first (gtest preserves declaration order): no runtime exists in
// this process yet, so classification has nothing to consult.
TEST(Lifecycle, ClassifyWithoutRuntime)
{
    ASSERT_EQ(core::lifecycle::registered_runtime(), nullptr);
    int on_stack = 0;
    EXPECT_EQ(core::lifecycle::classify_fault(&on_stack),
              FaultClass::kNoRuntime);
}

TEST(Lifecycle, ClassifyFault)
{
    MineSweeper ms(small_options());
    ASSERT_EQ(core::lifecycle::registered_runtime(), &ms);

    int on_stack = 0;
    EXPECT_EQ(core::lifecycle::classify_fault(&on_stack),
              FaultClass::kOutsideHeap);
    EXPECT_EQ(core::lifecycle::classify_fault(nullptr),
              FaultClass::kOutsideHeap);

    void* live = ms.alloc(64);
    ASSERT_NE(live, nullptr);
    EXPECT_EQ(core::lifecycle::classify_fault(live),
              FaultClass::kHeapLive);
    // Interior pointers classify through the same metadata.
    EXPECT_EQ(core::lifecycle::classify_fault(
                  to_ptr(to_addr(live) + 16)),
              FaultClass::kHeapLive);

    void* stale = ms.alloc(64);
    ASSERT_NE(stale, nullptr);
    ms.free(stale);
    std::uint64_t epoch = ~std::uint64_t{0};
    EXPECT_EQ(core::lifecycle::classify_fault(stale, &epoch),
              FaultClass::kQuarantined);
    EXPECT_EQ(epoch, ms.sweep_epoch());

    ms.free(live);
}

TEST(Lifecycle, RegistrationIsFirstWins)
{
    MineSweeper first(small_options());
    ASSERT_EQ(core::lifecycle::registered_runtime(), &first);
    {
        MineSweeper second(small_options());
        EXPECT_EQ(core::lifecycle::registered_runtime(), &first);
    }
    EXPECT_EQ(core::lifecycle::registered_runtime(), &first);
}

TEST(Lifecycle, ForkChildInheritsWorkingRuntime)
{
    MineSweeper ms(small_options());
    void* parent_block = ms.alloc(128);
    ASSERT_NE(parent_block, nullptr);

    fork_and_check([&] {
        // The child must be able to allocate, free, sweep and fork
        // again — every subsystem re-initialised by child_after_fork.
        std::vector<void*> ptrs;
        for (int i = 0; i < 512; ++i) {
            void* p = ms.alloc(static_cast<std::size_t>(32 + i % 512));
            if (p == nullptr)
                _exit(2);
            ptrs.push_back(p);
        }
        // The inherited block is live in the child too.
        if (core::lifecycle::classify_fault(parent_block) !=
            FaultClass::kHeapLive) {
            _exit(3);
        }
        for (void* p : ptrs)
            ms.free(p);
        ms.force_sweep();  // lazily respawns the sweeper in the child
        const pid_t grandchild = fork();
        if (grandchild == 0)
            _exit(0);
        if (grandchild < 0)
            _exit(4);
        int status = 0;
        if (waitpid(grandchild, &status, 0) != grandchild ||
            !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            _exit(5);
        }
    });

    // The parent side must be unaffected.
    void* after = ms.alloc(64);
    ASSERT_NE(after, nullptr);
    ms.free(after);
    ms.free(parent_block);
    ms.force_sweep();
}

TEST(Lifecycle, ForkChildSweepsWithInheritedSpareChunks)
{
    // The quarantine's pooled entry chunks are plain mappings, so a fork
    // child inherits the spares along with the epochs. The child adopts
    // the buffer of a thread that did not survive the fork, then keeps
    // quarantining and cycling lock-ins at the parent's load without
    // mapping a single new chunk.
    ASSERT_EQ(core::lifecycle::registered_runtime(), nullptr)
        << "the test drives the quarantine's fork hooks by hand";
    using quarantine::Entry;
    quarantine::Quarantine q(64);
    constexpr std::size_t kLoad = 4000;
    std::vector<Entry> set;
    auto cycle = [&](std::uintptr_t base) {
        for (std::size_t i = 0; i < kLoad; ++i)
            q.insert(Entry::make(base + i * 16, 16, false));
        q.lock_in(set);
        std::vector<Entry> failed(set.begin(), set.begin() + 100);
        q.store_failed(std::move(failed));
    };
    cycle(0x100000);
    cycle(0x200000);

    // A second thread parks three entries in its buffer across the fork.
    std::atomic<bool> parked{false};
    std::atomic<bool> release{false};
    std::thread other([&] {
        for (std::uintptr_t i = 0; i < 3; ++i)
            q.insert(Entry::make(0x900000 + i * 16, 16, false));
        parked.store(true);
        while (!release.load())
            std::this_thread::yield();
    });
    while (!parked.load())
        std::this_thread::yield();
    const std::uint64_t mapped = q.stats().chunks_mapped;

    q.prepare_fork();
    const pid_t pid = fork();
    if (pid == 0) {
        q.child_after_fork();
        cycle(0x300000);
        const bool adopted =
            std::any_of(set.begin(), set.end(), [](const Entry& e) {
                return e.real_base() == 0x900000;
            });
        if (set.size() != kLoad + 100 + 3 || !adopted)
            _exit(2);
        for (std::uintptr_t base = 0x400000; base < 0x800000;
             base += 0x100000) {
            cycle(base);
            if (set.size() != kLoad + 100)
                _exit(3);
        }
        _exit(q.stats().chunks_mapped == mapped ? 0 : 4);
    }
    q.parent_after_fork();
    release.store(true);
    other.join();
    ASSERT_GE(pid, 0) << "fork failed: " << std::strerror(errno);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "child status " << status;
}

TEST(Lifecycle, ForkWhileSweeping)
{
    util::lock_rank_set_enabled(true);
    Options o = small_options();
    o.helper_threads = 4;
    MineSweeper ms(o);

    // Hold sweeps open so fork() reliably lands mid-sweep: the prepare
    // handler must quiesce the sweep before freezing the hierarchy.
    util::failpoint_arm(util::Failpoint::kSweepDelay,
                        util::FailpointPolicy::burst(40));
    std::atomic<bool> stop{false};
    std::thread churn([&] {
        ms.register_mutator_thread();
        while (!stop.load(std::memory_order_relaxed)) {
            void* p = ms.alloc(256);
            if (p != nullptr)
                ms.free(p);
        }
        ms.unregister_mutator_thread();
    });

    for (int round = 0; round < 8; ++round) {
        ms.force_sweep();
        fork_and_check([&] {
            void* p = ms.alloc(64);
            if (p == nullptr)
                _exit(2);
            ms.free(p);
            ms.force_sweep();
        });
    }
    stop.store(true, std::memory_order_relaxed);
    churn.join();
    util::failpoint_disarm(util::Failpoint::kSweepDelay);
    util::lock_rank_set_enabled(false);
}

TEST(Lifecycle, ForkClaimsSweepTokenUnderForceSweepPressure)
{
    Options o = small_options();
    o.min_sweep_bytes = 16 << 10;
    o.watchdog_timeout_ms = 50;
    MineSweeper ms(o);

    // Saturate the sweep token: with a short watchdog every force_sweep
    // waiter self-serves, so sweeps run back-to-back and the token is
    // almost never observably free. prepare_fork() must *claim* the
    // token through the fork gate rather than wait to see it idle — an
    // observing quiesce starves here (each poll lands mid-sweep; 30 s+
    // stalls were reproduced before the gate existed).
    std::atomic<bool> stop{false};
    std::vector<std::thread> pressure;
    for (int i = 0; i < 4; ++i) {
        pressure.emplace_back([&] {
            ms.register_mutator_thread();
            while (!stop.load(std::memory_order_relaxed)) {
                void* p = ms.alloc(4096);
                if (p != nullptr)
                    ms.free(p);
                ms.force_sweep();
            }
            ms.unregister_mutator_thread();
        });
    }

    const auto t0 = std::chrono::steady_clock::now();
    for (int round = 0; round < 10; ++round) {
        fork_and_check([&] {
            void* p = ms.alloc(64);
            if (p == nullptr)
                _exit(2);
            ms.free(p);
        });
    }
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    stop.store(true, std::memory_order_relaxed);
    for (auto& t : pressure)
        t.join();

    // Generous bound: each fork waits out at most one in-flight sweep
    // plus scheduler noise. The regression this guards against is
    // unbounded, so the margin can be wide without going stale.
    EXPECT_LT(elapsed, std::chrono::seconds(20));
}

TEST(Lifecycle, ForkChildFailpointDegradesToSynchronousSweeps)
{
    MineSweeper ms(small_options());
    // fork.child: the child "loses" its sweeper respawn mark; sweeps
    // must still be served through the watchdog/force fallback paths.
    util::failpoint_arm(util::Failpoint::kForkChild,
                        util::FailpointPolicy::every(1));
    fork_and_check([&] {
        util::failpoint_disarm_all();
        void* p = ms.alloc(64);
        if (p == nullptr)
            _exit(2);
        ms.free(p);
        ms.force_sweep();
        if (ms.sweep_epoch() == 0)
            _exit(3);
    });
    util::failpoint_disarm(util::Failpoint::kForkChild);
}

TEST(Lifecycle, ThreadExitDrainsWithoutUnregister)
{
    MineSweeper ms(small_options());
    ASSERT_EQ(core::lifecycle::registered_runtime(), &ms);
    const std::size_t baseline_threads = ms.mutator_thread_count();

    // thread.exit: delay the TSD drain to widen the exit window.
    util::failpoint_arm(util::Failpoint::kThreadExit,
                        util::FailpointPolicy::every(2));
    std::vector<void*> leaked(8, nullptr);
    std::thread t([&] {
        ms.register_mutator_thread();
        for (void*& p : leaked) {
            p = ms.alloc(4096);
            ASSERT_NE(p, nullptr);
            ms.free(p);  // parks in this thread's quarantine buffer
        }
        // Exit WITHOUT unregister_mutator_thread(): the lifecycle TSD
        // destructor must drain the buffer and drop the registration.
    });
    t.join();
    util::failpoint_disarm(util::Failpoint::kThreadExit);

    EXPECT_EQ(ms.mutator_thread_count(), baseline_threads);

    // The frees must not be stranded: a sweep (no dangling pointers
    // remain — the pointers below are the quarantine's own records)
    // releases every one of them.
    leaked.assign(leaked.size(), nullptr);
    ms.force_sweep();
    ms.force_sweep();  // entries buffered mid-lock-in need a 2nd pass
    EXPECT_EQ(ms.stats().quarantine_bytes, 0u)
        << "quarantined bytes stranded by a dead thread";
}

TEST(Lifecycle, ManualUnregisterStaysIdempotentWithAutoDrain)
{
    MineSweeper ms(small_options());
    const std::size_t baseline_threads = ms.mutator_thread_count();
    std::thread t([&] {
        ms.register_mutator_thread();
        void* p = ms.alloc(64);
        ms.free(p);
        ms.unregister_mutator_thread();
        // The TSD destructor must now be disarmed — a second
        // unregister at exit would fail the registry's checks.
    });
    t.join();
    EXPECT_EQ(ms.mutator_thread_count(), baseline_threads);
}

TEST(Lifecycle, UnregisterAfterQuiesceReturns)
{
    // quiesce() keeps the sweep token claimed for good, and no sweep is
    // left to wait out: a registered thread that unregisters afterwards
    // (as its TSD destructor would at exit) must return. On failure the
    // runtime is leaked with the stuck thread, never destroyed under it.
    auto* ms = new MineSweeper(small_options());
    auto returned = std::make_shared<std::atomic<bool>>(false);
    std::thread t([ms, returned] {
        ms->register_mutator_thread();
        ms->free(ms->alloc(64));
        ms->quiesce();
        ms->unregister_mutator_thread();
        returned->store(true);
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!returned->load() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (!returned->load()) {
        t.detach();
        FAIL() << "unregister_mutator_thread() hung after quiesce()";
    }
    t.join();
    delete ms;
}

// ------------------------------------------------------ crash reporting

using LifecycleDeathTest = ::testing::Test;

TEST(LifecycleDeathTest, CrashReportClassifiesSyntheticUaf)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            core::lifecycle::install_crash_handler();
            Options o;
            o.unmapping = true;
            MineSweeper ms(o);
            // A large allocation is unmapped by free(): the dangling
            // read faults instead of seeing zeroes, which is the crash
            // the reporter exists to explain.
            char* p = static_cast<char*>(ms.alloc(std::size_t{4} << 20));
            p[0] = 1;
            ms.free(p);
            (void)*static_cast<volatile char*>(p);  // use-after-free
        },
        "likely use-after-free, quarantined by free\\(\\) at epoch");
}

// ------------------------------------------- lock-rank atfork window

TEST(Lifecycle, ForkWindowCoalescesEqualRanks)
{
    util::lock_rank_set_enabled(true);
    SpinLock a(LockRank::kBin);
    SpinLock b(LockRank::kBin);
    SpinLock c(LockRank::kExtent);

    util::lock_rank_fork_begin();
    a.lock();
    b.lock();  // same rank: legal (and coalesced) inside the window
    c.lock();
    EXPECT_EQ(util::lock_rank_held_count(), 2);  // kBin entry coalesced
    c.unlock();
    b.unlock();
    a.unlock();
    util::lock_rank_fork_end();
    EXPECT_EQ(util::lock_rank_held_count(), 0);
    util::lock_rank_set_enabled(false);
}

TEST(LifecycleDeathTest, ForkWindowStillPanicsOnInversion)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            util::lock_rank_set_enabled(true);
            SpinLock extent(LockRank::kExtent);
            SpinLock bin(LockRank::kBin);
            util::lock_rank_fork_begin();
            extent.lock();
            bin.lock();  // decreasing rank: misordered even in atfork
        },
        "lock rank inversion");
}

TEST(Lifecycle, AtforkCycleIsRankClean)
{
    // Acceptance: the full atfork lock cycle under an active rank
    // validator — any inversion in prepare/parent/child panics.
    util::lock_rank_set_enabled(true);
    MineSweeper ms(small_options());
    ASSERT_EQ(core::lifecycle::registered_runtime(), &ms);
    void* p = ms.alloc(64);
    fork_and_check([&] {
        void* q = ms.alloc(64);
        if (q == nullptr)
            _exit(2);
        ms.free(q);
    });
    ms.free(p);
    EXPECT_EQ(util::lock_rank_held_count(), 0);
    util::lock_rank_set_enabled(false);
}

TEST(Lifecycle, ForkChildReseedsPolicyRng)
{
    // The hardened allocation policy draws placement randomness from
    // thread_rng(). fork() duplicates that thread-local state; a child
    // replaying the parent's stream would have a heap layout
    // predictable from the parent, so the atfork child handler bumps
    // the reseed generation and the child's next draw diverges.
    MineSweeper ms(small_options());  // installs the atfork handlers
    // A copy of this thread's engine replays what the parent and an
    // un-reseeded child would draw next.
    const Rng before = thread_rng();

    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed: " << std::strerror(errno);
    if (pid == 0) {
        std::uint64_t draws[4];
        for (auto& d : draws)
            d = thread_rng().next_u64();
        const ssize_t n = write(fds[1], draws, sizeof(draws));
        _exit(n == static_cast<ssize_t>(sizeof(draws)) ? 0 : 3);
    }
    std::uint64_t child_draws[4] = {};
    ASSERT_EQ(read(fds[0], child_draws, sizeof(child_draws)),
              static_cast<ssize_t>(sizeof(child_draws)));
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "child status " << status;
    close(fds[0]);
    close(fds[1]);

    // The child reseeded: it did not replay the duplicated state. The
    // parent's engine was not invalidated: it did.
    Rng replay = before;
    std::uint64_t duplicated[4];
    for (auto& d : duplicated)
        d = replay.next_u64();
    EXPECT_NE(std::memcmp(duplicated, child_draws, sizeof(duplicated)), 0);
    for (const std::uint64_t d : duplicated)
        EXPECT_EQ(thread_rng().next_u64(), d);
}

}  // namespace
}  // namespace msw
