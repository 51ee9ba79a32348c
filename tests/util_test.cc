// Unit tests for util: bit helpers, RNG determinism and distribution sanity.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/bits.h"
#include "util/rng.h"
#include "util/spin_lock.h"

#include <thread>
#include <vector>

namespace msw {
namespace {

TEST(Bits, Pow2Predicates)
{
    EXPECT_TRUE(is_pow2(1));
    EXPECT_TRUE(is_pow2(2));
    EXPECT_TRUE(is_pow2(4096));
    EXPECT_TRUE(is_pow2(std::uint64_t{1} << 63));
    EXPECT_FALSE(is_pow2(0));
    EXPECT_FALSE(is_pow2(3));
    EXPECT_FALSE(is_pow2(4097));
}

TEST(Bits, AlignUpDown)
{
    EXPECT_EQ(align_up(0, 16), 0u);
    EXPECT_EQ(align_up(1, 16), 16u);
    EXPECT_EQ(align_up(16, 16), 16u);
    EXPECT_EQ(align_up(17, 16), 32u);
    EXPECT_EQ(align_down(17, 16), 16u);
    EXPECT_EQ(align_down(15, 16), 0u);
    EXPECT_TRUE(is_aligned(4096, 4096));
    EXPECT_FALSE(is_aligned(4097, 4096));
}

TEST(Bits, Log2)
{
    EXPECT_EQ(log2_floor(1), 0u);
    EXPECT_EQ(log2_floor(2), 1u);
    EXPECT_EQ(log2_floor(3), 1u);
    EXPECT_EQ(log2_floor(4096), 12u);
}

TEST(Bits, CeilDiv)
{
    EXPECT_EQ(ceil_div(0, 7), 0u);
    EXPECT_EQ(ceil_div(1, 7), 1u);
    EXPECT_EQ(ceil_div(7, 7), 1u);
    EXPECT_EQ(ceil_div(8, 7), 2u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next_u64() == b.next_u64();
    EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRangeAndCoversAll)
{
    Rng r(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = r.next_below(10);
        ASSERT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng r(7);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t v = r.next_range(3, 5);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(9);
    for (int i = 0; i < 10000; ++i) {
        const double d = r.next_double();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
    }
}

TEST(Rng, NormalMoments)
{
    Rng r(11);
    const int n = 200000;
    double sum = 0;
    double sq = 0;
    for (int i = 0; i < n; ++i) {
        const double x = r.next_normal();
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, ExponentialMean)
{
    Rng r(13);
    const int n = 200000;
    double sum = 0;
    for (int i = 0; i < n; ++i)
        sum += r.next_exponential(5.0);
    EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, ParetoBounded)
{
    Rng r(17);
    for (int i = 0; i < 10000; ++i) {
        const double v = r.next_pareto(1.2, 100.0);
        ASSERT_GE(v, 1.0);
        ASSERT_LE(v, 100.0);
    }
}

TEST(SpinLock, MutualExclusion)
{
    SpinLock lock;
    long counter = 0;
    const int kThreads = 4;
    const int kIters = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                lock.lock();
                ++counter;
                lock.unlock();
            }
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(counter, long{kThreads} * kIters);
}

TEST(SpinLock, TryLock)
{
    SpinLock lock;
    EXPECT_TRUE(lock.try_lock());
    EXPECT_FALSE(lock.try_lock());
    lock.unlock();
    EXPECT_TRUE(lock.try_lock());
    lock.unlock();
}

}  // namespace
}  // namespace msw
