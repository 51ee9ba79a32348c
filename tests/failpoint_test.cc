// Unit tests for the failpoint framework: policies, spec parsing, counter
// bookkeeping, and the disarmed fast path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>

#include "util/failpoint.h"

namespace msw::util {
namespace {

/** Every test leaves the process-global framework clean. */
class FailpointTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        failpoint_disarm_all();
        failpoint_reset_counters();
    }

    void
    TearDown() override
    {
        failpoint_disarm_all();
        failpoint_reset_counters();
    }
};

TEST_F(FailpointTest, DisarmedNeverFires)
{
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(failpoint_should_fail(Failpoint::kVmCommit));
    EXPECT_EQ(failpoint_evaluations(Failpoint::kVmCommit), 0u)
        << "disarmed evaluations must not take the slow path";
}

TEST_F(FailpointTest, ProbabilityExtremes)
{
    failpoint_arm(Failpoint::kVmCommit, FailpointPolicy::prob(1.0));
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(failpoint_should_fail(Failpoint::kVmCommit));

    failpoint_arm(Failpoint::kVmCommit, FailpointPolicy::prob(0.0));
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(failpoint_should_fail(Failpoint::kVmCommit));
}

TEST_F(FailpointTest, ProbabilityRoughlyCalibrated)
{
    failpoint_seed(12345);
    failpoint_arm(Failpoint::kVmPurge, FailpointPolicy::prob(0.25));
    int hits = 0;
    const int kTrials = 20000;
    for (int i = 0; i < kTrials; ++i)
        hits += failpoint_should_fail(Failpoint::kVmPurge) ? 1 : 0;
    // 0.25 ± generous slack (binomial stddev ~0.003 here).
    EXPECT_GT(hits, kTrials / 5);
    EXPECT_LT(hits, kTrials / 3);
    EXPECT_EQ(failpoint_hits(Failpoint::kVmPurge),
              static_cast<std::uint64_t>(hits));
}

TEST_F(FailpointTest, EveryNthFiresPeriodically)
{
    failpoint_arm(Failpoint::kVmDecommit, FailpointPolicy::every(3));
    int pattern = 0;
    for (int i = 0; i < 9; ++i) {
        pattern <<= 1;
        pattern |= failpoint_should_fail(Failpoint::kVmDecommit) ? 1 : 0;
    }
    EXPECT_EQ(pattern, 0b001001001);
    EXPECT_EQ(failpoint_evaluations(Failpoint::kVmDecommit), 9u);
    EXPECT_EQ(failpoint_hits(Failpoint::kVmDecommit), 3u);
}

TEST_F(FailpointTest, BurstFiresWindowThenSelfDisarms)
{
    failpoint_arm(Failpoint::kExtentGrow, FailpointPolicy::burst(3, 2));
    int pattern = 0;
    for (int i = 0; i < 8; ++i) {
        pattern <<= 1;
        pattern |= failpoint_should_fail(Failpoint::kExtentGrow) ? 1 : 0;
    }
    EXPECT_EQ(pattern, 0b00111000) << "skip 2, fire 3, then disarmed";
    EXPECT_EQ(failpoint_hits(Failpoint::kExtentGrow), 3u);
    // Self-disarm: only the 5 in-policy evaluations hit the slow path
    // (unless another test left something armed, which SetUp prevents).
    EXPECT_EQ(failpoint_evaluations(Failpoint::kExtentGrow), 5u);
}

TEST_F(FailpointTest, ReArmingResetsPolicyOrdinals)
{
    failpoint_arm(Failpoint::kVmCommit, FailpointPolicy::burst(1));
    EXPECT_TRUE(failpoint_should_fail(Failpoint::kVmCommit));
    failpoint_arm(Failpoint::kVmCommit, FailpointPolicy::burst(1));
    EXPECT_TRUE(failpoint_should_fail(Failpoint::kVmCommit))
        << "fresh burst must start from ordinal 0 again";
}

TEST_F(FailpointTest, NamesRoundTrip)
{
    for (unsigned i = 0; i < kNumFailpoints; ++i) {
        const auto fp = static_cast<Failpoint>(i);
        const char* name = failpoint_name(fp);
        ASSERT_NE(name, nullptr);
        Failpoint back;
        ASSERT_TRUE(failpoint_from_name(name, std::strlen(name), &back))
            << name;
        EXPECT_EQ(back, fp);
    }
    Failpoint out;
    EXPECT_FALSE(failpoint_from_name("vm.bogus", 8, &out));
}

TEST_F(FailpointTest, ConfigureSpecArmsClauses)
{
    ASSERT_TRUE(failpoint_configure(
        "vm.commit=p:1.0,vm.decommit=every:2,extent.grow=burst:1@1"));
    EXPECT_TRUE(failpoint_should_fail(Failpoint::kVmCommit));
    EXPECT_FALSE(failpoint_should_fail(Failpoint::kVmDecommit));
    EXPECT_TRUE(failpoint_should_fail(Failpoint::kVmDecommit));
    EXPECT_FALSE(failpoint_should_fail(Failpoint::kExtentGrow));
    EXPECT_TRUE(failpoint_should_fail(Failpoint::kExtentGrow));
}

TEST_F(FailpointTest, ConfigureAcceptsSemicolonsAndSeedAndOff)
{
    ASSERT_TRUE(
        failpoint_configure("seed=7;vm.purge=prob:1.0;vm.purge=off"));
    EXPECT_FALSE(failpoint_should_fail(Failpoint::kVmPurge));
}

TEST_F(FailpointTest, ConfigureRejectsMalformedSpecs)
{
    EXPECT_FALSE(failpoint_configure("vm.commit"));
    EXPECT_FALSE(failpoint_configure("vm.commit=p:1.5"));
    EXPECT_FALSE(failpoint_configure("vm.commit=every:0"));
    EXPECT_FALSE(failpoint_configure("vm.commit=burst:0"));
    EXPECT_FALSE(failpoint_configure("no.such.site=p:0.5"));
    EXPECT_FALSE(failpoint_configure("vm.commit=banana:1"));
    EXPECT_FALSE(failpoint_configure("seed=notanumber"));
}

TEST_F(FailpointTest, ResetCountersZeroesTotals)
{
    failpoint_arm(Failpoint::kVmCommit, FailpointPolicy::prob(1.0));
    (void)failpoint_should_fail(Failpoint::kVmCommit);
    EXPECT_GT(failpoint_evaluations(Failpoint::kVmCommit), 0u);
    failpoint_reset_counters();
    EXPECT_EQ(failpoint_evaluations(Failpoint::kVmCommit), 0u);
    EXPECT_EQ(failpoint_hits(Failpoint::kVmCommit), 0u);
}

TEST_F(FailpointTest, DisarmAllCoversEverySite)
{
    for (unsigned i = 0; i < kNumFailpoints; ++i) {
        failpoint_arm(static_cast<Failpoint>(i),
                      FailpointPolicy::prob(1.0));
    }
    failpoint_disarm_all();
    for (unsigned i = 0; i < kNumFailpoints; ++i)
        EXPECT_FALSE(failpoint_should_fail(static_cast<Failpoint>(i)));
}

// An evaluation racing arm/disarm reads one whole policy: every(1) or
// off, never every-Nth with the disarmed period 0 (a division by zero).
// Under TSan the unsynchronized policy copy this replaced is a report.
TEST_F(FailpointTest, DisarmWhileEvaluatingReadsWholePolicies)
{
    std::atomic<bool> started{false};
    std::atomic<bool> done{false};
    std::thread evaluator([&] {
        started.store(true, std::memory_order_release);
        while (!done.load(std::memory_order_acquire))
            (void)failpoint_should_fail(Failpoint::kVmPurge);
    });
    while (!started.load(std::memory_order_acquire))
        std::this_thread::yield();
    for (int i = 0; i < 100000; ++i) {
        failpoint_arm(Failpoint::kVmPurge, FailpointPolicy::every(1));
        failpoint_disarm(Failpoint::kVmPurge);
    }
    done.store(true, std::memory_order_release);
    evaluator.join();
    // every(1) fires on each evaluation that saw it.
    EXPECT_EQ(failpoint_evaluations(Failpoint::kVmPurge),
              failpoint_hits(Failpoint::kVmPurge));
}

}  // namespace
}  // namespace msw::util
