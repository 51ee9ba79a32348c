// Allocation-policy layer tests: the default policy's table is all-null
// and behaviour-preserving (deterministic placement identical across
// instances), the hardened policy randomizes placement and reuse, and
// its canary/fill checks catch overflow and use-after-free writes —
// fatally by default, as counted events under MSW_POLICY_FATAL=0.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "alloc/jade_allocator.h"
#include "alloc/policy.h"
#include "core/minesweeper.h"
#include "util/bits.h"

namespace msw::alloc {
namespace {

TEST(PolicyTable, DefaultPolicyIsAllNull)
{
    const AllocPolicy& p = default_policy();
    EXPECT_STREQ(p.name, "default");
    EXPECT_EQ(p.choose_slot, nullptr);
    EXPECT_EQ(p.choose_cached, nullptr);
    EXPECT_EQ(p.fill_free, nullptr);
    EXPECT_EQ(p.check_free_fill, nullptr);
    EXPECT_EQ(p.arm_canary, nullptr);
    EXPECT_EQ(p.check_canary, nullptr);
    EXPECT_EQ(p.shuffle, nullptr);
}

TEST(PolicyTable, HardenedPolicyFillsEveryHook)
{
    const AllocPolicy& p = hardened_policy();
    EXPECT_STREQ(p.name, "hardened");
    EXPECT_NE(p.choose_slot, nullptr);
    EXPECT_NE(p.choose_cached, nullptr);
    EXPECT_NE(p.fill_free, nullptr);
    EXPECT_NE(p.check_free_fill, nullptr);
    EXPECT_NE(p.arm_canary, nullptr);
    EXPECT_NE(p.check_canary, nullptr);
    EXPECT_NE(p.shuffle, nullptr);
}

TEST(PolicyCanary, SecretKeysTheCanaryOfAFixedAddress)
{
    // No hardened heap is live here, so redrawing the key strands no
    // armed canary. A redraw keeps an odd tail byte's value with
    // probability 1/128; eight in a row do so with 2^-56.
    const AllocPolicy& p = hardened_policy();
    alignas(16) static unsigned char block[64];
    p.arm_canary(block, sizeof(block));
    const unsigned char before = block[sizeof(block) - 1];
    EXPECT_TRUE(p.check_canary(block, sizeof(block)));
    EXPECT_EQ(before & 1u, 1u) << "the tail byte is never zero";
    bool changed = false;
    for (int i = 0; i < 8 && !changed; ++i) {
        redraw_canary_secret_for_testing();
        changed = !p.check_canary(block, sizeof(block));
    }
    EXPECT_TRUE(changed) << "the canary does not depend on the secret";
    p.arm_canary(block, sizeof(block));
    EXPECT_TRUE(p.check_canary(block, sizeof(block)));
}

TEST(PolicyCanary, ForkChildKeepsTheSecret)
{
    // The child inherits the heap and its armed canaries, so it must
    // verify them with the parent's key.
    const AllocPolicy& p = hardened_policy();
    alignas(16) static unsigned char block[48];
    p.arm_canary(block, sizeof(block));
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0)
        _exit(p.check_canary(block, sizeof(block)) ? 0 : 1);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "child status " << status;
}

TEST(PolicyTable, LookupByName)
{
    EXPECT_EQ(policy_by_name("default"), &default_policy());
    EXPECT_EQ(policy_by_name("hardened"), &hardened_policy());
    EXPECT_EQ(policy_by_name(nullptr), &default_policy());
    EXPECT_EQ(policy_by_name("no-such-policy"), nullptr);
}

TEST(PolicyTable, EnvironmentResolution)
{
    ASSERT_EQ(setenv("MSW_POLICY", "hardened", 1), 0);
    EXPECT_EQ(&policy_from_env(), &hardened_policy());
    ASSERT_EQ(setenv("MSW_POLICY", "bogus", 1), 0);
    EXPECT_EQ(&policy_from_env(), &default_policy());
    ASSERT_EQ(unsetenv("MSW_POLICY"), 0);
    EXPECT_EQ(&policy_from_env(), &default_policy());
    // An explicit policy always wins over the environment.
    ASSERT_EQ(setenv("MSW_POLICY", "hardened", 1), 0);
    EXPECT_EQ(&resolve_policy(&default_policy()), &default_policy());
    EXPECT_EQ(&resolve_policy(nullptr), &hardened_policy());
    ASSERT_EQ(unsetenv("MSW_POLICY"), 0);
}

JadeAllocator::Options
substrate_options(const AllocPolicy& policy, bool tcache)
{
    JadeAllocator::Options o;
    o.heap_bytes = std::size_t{1} << 30;
    o.enable_tcache = tcache;
    o.policy = &policy;
    return o;
}

/** Allocation offsets relative to the first allocation. */
std::vector<std::ptrdiff_t>
alloc_deltas(JadeAllocator& jade, unsigned n, std::size_t size)
{
    std::vector<std::ptrdiff_t> deltas;
    char* first = nullptr;
    for (unsigned i = 0; i < n; ++i) {
        char* p = static_cast<char*>(jade.alloc(size));
        EXPECT_NE(p, nullptr);
        if (first == nullptr)
            first = p;
        deltas.push_back(p - first);
    }
    return deltas;
}

TEST(Placement, DefaultPlacementIsDeterministicAcrossInstances)
{
    // The behaviour-preservation contract: under the default policy two
    // fresh substrates serve an identical request sequence at identical
    // slab offsets (first-fit, ascending).
    JadeAllocator a(substrate_options(default_policy(), false));
    JadeAllocator b(substrate_options(default_policy(), false));
    const auto da = alloc_deltas(a, 64, 48);
    const auto db = alloc_deltas(b, 64, 48);
    EXPECT_EQ(da, db);
    for (std::size_t i = 1; i < da.size(); ++i)
        EXPECT_GT(da[i], da[i - 1]) << "first-fit must ascend";
}

TEST(Placement, HardenedPlacementIsRandomized)
{
    JadeAllocator jade(substrate_options(hardened_policy(), false));
    const auto deltas = alloc_deltas(jade, 64, 48);
    // 64 uniformly-placed slots coming out in ascending address order
    // has probability ~1/64!; any monotone run this long means the
    // random placement is not wired in.
    bool ascending = true;
    for (std::size_t i = 1; i < deltas.size(); ++i)
        if (deltas[i] < deltas[i - 1])
            ascending = false;
    EXPECT_FALSE(ascending);
}

TEST(Placement, HardenedThreadCacheReuseIsNotLifo)
{
    JadeAllocator jade(substrate_options(hardened_policy(), true));
    constexpr unsigned kBatch = 8;
    bool deviated = false;
    for (unsigned round = 0; round < 4 && !deviated; ++round) {
        void* ptrs[kBatch];
        for (auto& p : ptrs) {
            p = jade.alloc(48);
            ASSERT_NE(p, nullptr);
        }
        for (auto& p : ptrs)
            jade.free(p);  // cached in free order
        for (unsigned i = 0; i < kBatch; ++i) {
            void* got = jade.alloc(48);
            ASSERT_NE(got, nullptr);
            // LIFO would replay the frees in exact reverse order.
            if (got != ptrs[kBatch - 1 - i])
                deviated = true;
        }
    }
    // P(perfect LIFO under random picks, 4 rounds) = (1/8!)^4.
    EXPECT_TRUE(deviated);
}

/**
 * Slab refill order after a batched release in @p order: frees go
 * through free_direct_batch (or one free_direct each when @p one_by_one),
 * then as many allocations as frees report which of the three slabs
 * (0, 1, 2 in allocation order) each came from.
 */
std::vector<int>
refill_slabs(const std::vector<int>& order, bool one_by_one)
{
    JadeAllocator jade(substrate_options(hardened_policy(), false));
    const unsigned nslots = slab_slots(size_to_class(64));
    std::vector<void*> objs(3 * nslots);
    for (void*& p : objs)
        p = jade.alloc(64);
    const auto slab_of = [&](void* p) {
        for (int s = 0; s < 3; ++s) {
            if (jade.extents().lookup_live(to_addr(p)) ==
                jade.extents().lookup_live(to_addr(objs[s * nslots])))
                return s;
        }
        return -1;
    };
    // Release the next unreleased object of slab `s` for each s in order.
    std::vector<void*> batch;
    unsigned next[3] = {0, 0, 0};
    for (int s : order)
        batch.push_back(objs[s * nslots + next[s]++]);
    if (one_by_one) {
        for (void* p : batch)
            jade.free_direct(p);
    } else {
        jade.free_direct_batch(batch.data(), batch.size());
    }
    std::vector<int> refill;
    for (std::size_t i = 0; i < batch.size(); ++i)
        refill.push_back(slab_of(jade.alloc(64)));
    return refill;
}

TEST(HardenedRelease, SlabRefillOrderFollowsTheShuffle)
{
    // Three full slabs under the hardened policy; the release order is
    // the policy's own shuffle of two frees per slab. Batching groups
    // frees by slab in order of first appearance, so the bins see full
    // slabs rejoin their lists in the same order as one free at a time:
    // the shuffle, not the addresses, decides which slab refills first.
    std::vector<int> order = {0, 0, 1, 1, 2, 2};
    std::vector<std::vector<int>> seen;
    for (int round = 0; round < 16; ++round) {
        hardened_policy().shuffle(order.data(), order.size(), sizeof(int));
        const std::vector<int> batched = refill_slabs(order, false);
        EXPECT_EQ(batched, refill_slabs(order, true));
        // The most recently rejoined slab (last first appearance) is the
        // nonfull list's head and refills first.
        std::vector<int> firsts;
        for (int s : order) {
            if (std::find(firsts.begin(), firsts.end(), s) == firsts.end())
                firsts.push_back(s);
        }
        const std::vector<int> expect = {firsts[2], firsts[2], firsts[1],
                                         firsts[1], firsts[0], firsts[0]};
        EXPECT_EQ(batched, expect);
        if (std::find(seen.begin(), seen.end(), batched) == seen.end())
            seen.push_back(batched);
    }
    // Different shuffles led to different refill orders.
    EXPECT_GT(seen.size(), 1u);
}

}  // namespace
}  // namespace msw::alloc

namespace msw::core {
namespace {

Options
hardened_options()
{
    Options o;
    o.mode = Mode::kSynchronous;  // deterministic sweeps, no threads
    o.helper_threads = 0;
    o.min_sweep_bytes = 4096;
    o.jade.heap_bytes = std::size_t{1} << 30;
    o.jade.policy = &alloc::hardened_policy();
    return o;
}

TEST(HardenedRuntime, CountersAdvanceWithoutFalsePositives)
{
    MineSweeper ms(hardened_options());
    std::vector<void*> ptrs;
    for (int i = 0; i < 256; ++i) {
        void* p = ms.alloc(64);
        ASSERT_NE(p, nullptr);
        std::memset(p, 0x11, 64);  // dirty the payload like real code
        ptrs.push_back(p);
    }
    for (void* p : ptrs)
        ms.free(p);
    ms.force_sweep();
    const SweepStats s = ms.sweep_stats();
    EXPECT_EQ(s.canary_checks, 256u);
    EXPECT_EQ(s.canary_violations, 0u);
    EXPECT_GT(s.sweep_fill_checks, 0u);
    EXPECT_GE(s.release_shuffles, 1u);
}

TEST(HardenedRuntime, DefaultPolicyKeepsCountersAtZero)
{
    Options o = hardened_options();
    o.jade.policy = &alloc::default_policy();
    MineSweeper ms(o);
    void* p = ms.alloc(64);
    ASSERT_NE(p, nullptr);
    ms.free(p);
    ms.force_sweep();
    const SweepStats s = ms.sweep_stats();
    EXPECT_EQ(s.canary_checks, 0u);
    EXPECT_EQ(s.canary_violations, 0u);
    EXPECT_EQ(s.sweep_fill_checks, 0u);
    EXPECT_EQ(s.release_shuffles, 0u);
}

using HardenedDeathTest = ::testing::Test;

TEST(HardenedDeathTest, OverflowCanaryTripsAtFree)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            MineSweeper ms(hardened_options());
            char* p = static_cast<char*>(ms.alloc(40));
            // usable_size() excludes the reserved slack byte; writing it
            // is a one-byte heap overflow onto the canary. Flipping the
            // armed byte's bits guarantees the value changes (a fixed
            // constant would equal the canary now and then).
            p[ms.usable_size(p)] ^= 0x5a;
            ms.free(p);
        },
        "allocation policy violation");
}

TEST(HardenedDeathTest, QuarantineTamperTripsAtSweep)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            MineSweeper ms(hardened_options());
            char* p = static_cast<char*>(ms.alloc(64));
            ms.free(p);
            // Use-after-free write into the zero-filled quarantined
            // block; the release-time fill audit must catch it.
            p[8] = 1;
            ms.force_sweep();
        },
        "allocation policy violation");
}

TEST(HardenedRuntime, NonFatalModeCountsViolations)
{
    ASSERT_EQ(setenv("MSW_POLICY_FATAL", "0", 1), 0);
    MineSweeper ms(hardened_options());
    char* p = static_cast<char*>(ms.alloc(40));
    ASSERT_NE(p, nullptr);
    p[ms.usable_size(p)] ^= 0x5a;  // overflow that surely changes it
    ms.free(p);
    EXPECT_EQ(ms.sweep_stats().canary_violations, 1u);
    EXPECT_EQ(unsetenv("MSW_POLICY_FATAL"), 0);
}

}  // namespace
}  // namespace msw::core
