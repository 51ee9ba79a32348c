// SpinLock / msw::Mutex behaviour under contention, LockGuard/UniqueLock
// RAII, and runtime lock-rank validation (inversion panics, try_lock
// exemption, release-order tolerance).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/spin_lock.h"

namespace msw {
namespace {

using util::LockRank;

TEST(SpinLock, ContendedIncrementsAreNotLost)
{
    SpinLock lock;
    std::uint64_t counter = 0;  // deliberately non-atomic
    constexpr int kThreads = 8;
    constexpr int kIters = 20'000;

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                LockGuard g(lock);
                ++counter;
            }
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(SpinLock, TryLockFailsWhileHeldAndSucceedsAfterRelease)
{
    SpinLock lock;
    lock.lock();

    std::atomic<bool> tried{false};
    std::atomic<bool> acquired{false};
    std::thread other([&] {
        acquired = lock.try_lock();
        tried = true;
    });
    other.join();
    EXPECT_TRUE(tried.load());
    EXPECT_FALSE(acquired.load());

    lock.unlock();
    ASSERT_TRUE(lock.try_lock());
    lock.unlock();
}

TEST(SpinLock, TryLockUnderContentionEventuallySucceeds)
{
    SpinLock lock;
    std::atomic<int> successes{0};
    constexpr int kThreads = 4;
    constexpr int kTarget = 1'000;

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            while (successes.load(std::memory_order_relaxed) < kTarget) {
                if (lock.try_lock()) {
                    successes.fetch_add(1, std::memory_order_relaxed);
                    lock.unlock();
                }
            }
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_GE(successes.load(), kTarget);
}

/** True if another thread finds @p mu locked. */
bool
locked_elsewhere(Mutex& mu)
{
    bool got = false;
    std::thread([&] {
        got = mu.try_lock();
        if (got)
            mu.unlock();
    }).join();
    return !got;
}

TEST(Mutex, UniqueLockManualRelockRoundTrip)
{
    Mutex mu;
    {
        UniqueLock l(mu);
        EXPECT_TRUE(locked_elsewhere(mu));
        l.unlock();
        EXPECT_FALSE(locked_elsewhere(mu));
        l.lock();
        EXPECT_TRUE(locked_elsewhere(mu));
    }
    // The destructor released the re-taken lock exactly once.
    EXPECT_FALSE(locked_elsewhere(mu));
}

/** RAII enable/restore so a failing assertion cannot leak global state. */
class LockRankEnabler
{
  public:
    LockRankEnabler() { util::lock_rank_set_enabled(true); }
    ~LockRankEnabler() { util::lock_rank_set_enabled(false); }
};

TEST(LockRank, InOrderAcquisitionIsAccepted)
{
    LockRankEnabler on;
    SpinLock control(LockRank::kCoreControl);
    SpinLock bin(LockRank::kBin);
    SpinLock extent(LockRank::kExtent);

    control.lock();
    bin.lock();
    extent.lock();
    EXPECT_EQ(util::lock_rank_held_count(), 3);
    extent.unlock();
    bin.unlock();
    control.unlock();
    EXPECT_EQ(util::lock_rank_held_count(), 0);
}

TEST(LockRank, UnrankedLocksAreIgnored)
{
    LockRankEnabler on;
    SpinLock plain;  // kUnranked: test/workload-local locks opt out
    SpinLock extent(LockRank::kExtent);

    extent.lock();
    plain.lock();  // no rank entry, no order check
    EXPECT_EQ(util::lock_rank_held_count(), 1);
    plain.unlock();
    extent.unlock();
}

TEST(LockRank, TryLockIsExemptFromOrderCheck)
{
    LockRankEnabler on;
    SpinLock extent(LockRank::kExtent);
    SpinLock bin(LockRank::kBin);

    // try_lock against the order is allowed (it cannot deadlock)...
    extent.lock();
    ASSERT_TRUE(bin.try_lock());
    EXPECT_EQ(util::lock_rank_held_count(), 2);
    bin.unlock();
    extent.unlock();
}

TEST(LockRank, OutOfOrderReleaseIsTolerated)
{
    LockRankEnabler on;
    SpinLock bin(LockRank::kBin);
    SpinLock extent(LockRank::kExtent);

    bin.lock();
    extent.lock();
    bin.unlock();  // released before the higher-ranked extent lock
    EXPECT_EQ(util::lock_rank_held_count(), 1);
    extent.unlock();
    EXPECT_EQ(util::lock_rank_held_count(), 0);
}

using LockRankDeathTest = ::testing::Test;

TEST(LockRankDeathTest, BlockingInversionPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            util::lock_rank_set_enabled(true);
            SpinLock extent(LockRank::kExtent);
            SpinLock bin(LockRank::kBin);
            extent.lock();
            bin.lock();  // bin (32) after extent (40): inversion
        },
        "lock rank inversion");
}

TEST(LockRankDeathTest, SameRankNestingPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            util::lock_rank_set_enabled(true);
            SpinLock a(LockRank::kBin);
            SpinLock b(LockRank::kBin);
            a.lock();
            b.lock();  // two bin locks must never nest
        },
        "lock rank inversion");
}

TEST(LockRankDeathTest, RankedMutexInversionPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            util::lock_rank_set_enabled(true);
            Mutex metrics(LockRank::kMetrics);
            Mutex control(LockRank::kCoreControl);
            MutexGuard g1(metrics);
            MutexGuard g2(control);  // core band under the metrics leaf
        },
        "lock rank inversion");
}

}  // namespace
}  // namespace msw
