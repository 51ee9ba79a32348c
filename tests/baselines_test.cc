// Baseline tests: MarkUs (transitive marking) and FFMalloc (one-time
// allocation) must both prevent use-after-reallocate, each by its own
// mechanism, and exhibit their characteristic memory behaviours.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "baselines/ffmalloc.h"
#include "baselines/markus.h"
#include "util/bits.h"
#include "util/rng.h"

namespace msw::baseline {
namespace {

struct Roots {
    void* slot[64] = {};
};

// ------------------------------------------------------------- MarkUs

MarkUs::Options
markus_options()
{
    MarkUs::Options o;
    o.min_mark_bytes = 4096;
    o.jade.heap_bytes = std::size_t{1} << 30;
    return o;
}

class MarkUsTest : public ::testing::Test
{
  protected:
    MarkUsTest() : mu(markus_options()) { mu.add_root(&roots, sizeof(roots)); }
    MarkUs mu;
    Roots roots;
};

TEST_F(MarkUsTest, BasicAllocFree)
{
    void* p = mu.alloc(100);
    ASSERT_NE(p, nullptr);
    std::memset(p, 1, 100);
    EXPECT_GE(mu.usable_size(p), 100u);
    mu.free(p);
    EXPECT_TRUE(mu.in_quarantine(p));
}

TEST_F(MarkUsTest, UnreachableAllocationIsCollected)
{
    void* p = mu.alloc(64);
    mu.free(p);
    mu.force_sweep();
    EXPECT_FALSE(mu.in_quarantine(p));
}

TEST_F(MarkUsTest, RootReachableAllocationStaysQuarantined)
{
    void* p = mu.alloc(64);
    roots.slot[0] = p;
    mu.free(p);
    mu.force_sweep();
    EXPECT_TRUE(mu.in_quarantine(p));
    roots.slot[0] = nullptr;
    mu.force_sweep();
    EXPECT_FALSE(mu.in_quarantine(p));
}

TEST_F(MarkUsTest, TransitiveReachabilityPins)
{
    // root -> a -> b, where only a is in the root set. Freeing b must
    // keep it quarantined because it is reachable *through* a.
    auto** a = static_cast<void**>(mu.alloc(64));
    void* b = mu.alloc(64);
    a[0] = b;
    roots.slot[0] = a;
    mu.free(b);
    mu.force_sweep();
    EXPECT_TRUE(mu.in_quarantine(b))
        << "b is reachable transitively via live object a";
    a[0] = nullptr;
    mu.force_sweep();
    EXPECT_FALSE(mu.in_quarantine(b));
    roots.slot[0] = nullptr;
    mu.free(a);
}

TEST_F(MarkUsTest, UnreachableCycleIsCollected)
{
    // a <-> b cycle with no external reference: a tracing collector
    // handles this without zeroing (unlike a pure linear sweep).
    auto** a = static_cast<void**>(mu.alloc(64));
    auto** b = static_cast<void**>(mu.alloc(64));
    a[0] = b;
    b[0] = a;
    mu.free(a);
    mu.free(b);
    mu.force_sweep();
    EXPECT_FALSE(mu.in_quarantine(a));
    EXPECT_FALSE(mu.in_quarantine(b));
}

TEST_F(MarkUsTest, ReachableCycleStays)
{
    auto** a = static_cast<void**>(mu.alloc(64));
    auto** b = static_cast<void**>(mu.alloc(64));
    a[0] = b;
    b[0] = a;
    roots.slot[0] = a;
    mu.free(a);
    mu.free(b);
    mu.force_sweep();
    EXPECT_TRUE(mu.in_quarantine(a));
    EXPECT_TRUE(mu.in_quarantine(b)) << "b reachable via quarantined a";
    roots.slot[0] = nullptr;
    mu.force_sweep();
    EXPECT_FALSE(mu.in_quarantine(a));
    EXPECT_FALSE(mu.in_quarantine(b));
}

TEST_F(MarkUsTest, UseAfterReallocatePrevented)
{
    void* victim = mu.alloc(128);
    roots.slot[0] = victim;
    mu.free(victim);
    for (int i = 0; i < 3000; ++i) {
        void* attacker = mu.alloc(128);
        ASSERT_NE(attacker, victim);
        mu.free(attacker);
    }
    roots.slot[0] = nullptr;
}

TEST_F(MarkUsTest, DoubleFreeAbsorbed)
{
    void* p = mu.alloc(64);
    mu.free(p);
    mu.free(p);
    mu.force_sweep();
    void* q = mu.alloc(64);
    ASSERT_NE(q, nullptr);
    mu.free(q);
}

TEST_F(MarkUsTest, ChurnReleasesMemory)
{
    Rng rng(4);
    for (int i = 0; i < 20000; ++i) {
        void* p = mu.alloc(1 + rng.next_below(500));
        mu.free(p);
    }
    mu.flush();
    mu.force_sweep();
    const auto s = mu.stats();
    EXPECT_GT(s.sweeps, 0u);
    EXPECT_LT(s.quarantine_bytes, 8u << 20);
}

// ------------------------------------------------------------ FFMalloc

class FFMallocTest : public ::testing::Test
{
  protected:
    FFMalloc::Options
    options()
    {
        FFMalloc::Options o;
        o.va_bytes = std::size_t{4} << 30;
        return o;
    }
    FFMallocTest() : ff(options()) {}
    FFMalloc ff;
};

TEST_F(FFMallocTest, BasicAllocFree)
{
    void* p = ff.alloc(100);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0x5c, 100);
    EXPECT_GE(ff.usable_size(p), 100u);
    ff.free(p);
}

TEST_F(FFMallocTest, VirtualAddressesAreNeverReused)
{
    std::set<void*> seen;
    for (int i = 0; i < 20000; ++i) {
        void* p = ff.alloc(64);
        ASSERT_TRUE(seen.insert(p).second)
            << "address reused at iteration " << i;
        ff.free(p);
    }
}

TEST_F(FFMallocTest, FrontierGrowsMonotonically)
{
    const std::size_t f0 = ff.frontier_bytes();
    for (int i = 0; i < 1000; ++i)
        ff.free(ff.alloc(256));
    const std::size_t f1 = ff.frontier_bytes();
    EXPECT_GT(f1, f0);
    for (int i = 0; i < 1000; ++i)
        ff.free(ff.alloc(256));
    EXPECT_GT(ff.frontier_bytes(), f1);
}

TEST_F(FFMallocTest, EmptyPagesAreDecommitted)
{
    // Pure churn: committed memory must stay bounded because fully-dead
    // pages are returned to the OS.
    for (int i = 0; i < 100000; ++i)
        ff.free(ff.alloc(512));
    EXPECT_LT(ff.stats().committed_bytes, 8u << 20)
        << "dead pages must be decommitted";
}

TEST_F(FFMallocTest, SurvivorPinsItsPage)
{
    // One long-lived object per batch: its page cannot be decommitted —
    // the fragmentation pathology of Fig 8.
    std::vector<void*> survivors;
    const std::size_t before = ff.stats().committed_bytes;
    for (int batch = 0; batch < 200; ++batch) {
        std::vector<void*> batch_ptrs;
        for (int i = 0; i < 64; ++i)
            batch_ptrs.push_back(ff.alloc(1024));
        survivors.push_back(batch_ptrs[7]);
        for (std::size_t i = 0; i < batch_ptrs.size(); ++i) {
            if (i != 7)
                ff.free(batch_ptrs[i]);
        }
    }
    // 200 survivors x 1 KiB live, but committed memory is pinned at page
    // granularity: far more than the live bytes.
    const std::size_t committed = ff.stats().committed_bytes - before;
    EXPECT_GT(committed, 200 * vm::kPageSize / 2)
        << "survivors must pin whole pages";
    for (void* p : survivors)
        ff.free(p);
}

TEST_F(FFMallocTest, LargeAllocationFreeDecommitsImmediately)
{
    const std::size_t before = ff.stats().committed_bytes;
    void* p = ff.alloc(8 << 20);
    std::memset(p, 1, 8 << 20);
    EXPECT_GE(ff.stats().committed_bytes, before + (8u << 20));
    ff.free(p);
    EXPECT_LE(ff.stats().committed_bytes, before + vm::kPageSize);
}

TEST_F(FFMallocTest, DanglingPointerReadsStaleOrFaults)
{
    // After free+spray, the dangling pointer never aliases new data.
    auto* victim = static_cast<std::uint64_t*>(ff.alloc(64));
    victim[0] = 0x1122334455667788ull;
    void* victim_ptr = victim;
    ff.free(victim);
    std::vector<void*> spray;
    for (int i = 0; i < 1000; ++i)
        spray.push_back(ff.alloc(64));
    for (void* p : spray)
        ASSERT_NE(p, victim_ptr) << "FFMalloc must never reuse addresses";
    for (void* p : spray)
        ff.free(p);
}

TEST_F(FFMallocTest, ContentsPreservedWhileLive)
{
    Rng rng(6);
    std::vector<std::pair<unsigned char*, unsigned char>> live;
    for (int i = 0; i < 20000; ++i) {
        if (live.empty() || rng.next_bool(0.5)) {
            const std::size_t size = 1 + rng.next_below(2000);
            auto canary = static_cast<unsigned char>(rng.next_below(256));
            auto* p = static_cast<unsigned char*>(ff.alloc(size));
            std::memset(p, canary, size);
            live.emplace_back(p, canary);
        } else {
            const std::size_t idx = rng.next_below(live.size());
            auto [p, canary] = live[idx];
            ASSERT_EQ(*p, canary);
            ff.free(p);
            live[idx] = live.back();
            live.pop_back();
        }
    }
    for (auto [p, canary] : live)
        ff.free(p);
}

TEST_F(FFMallocTest, AlignedAllocation)
{
    for (std::size_t align : {32ul, 4096ul, 65536ul}) {
        void* p = ff.alloc_aligned(align, 1000);
        EXPECT_TRUE(is_aligned(to_addr(p), align)) << align;
        ff.free(p);
    }
}

TEST_F(FFMallocTest, UsableSizeForLarge)
{
    void* p = ff.alloc(100000);
    EXPECT_GE(ff.usable_size(p), 100000u);
    ff.free(p);
}

TEST_F(FFMallocTest, StatsCountCalls)
{
    const auto before = ff.stats();
    void* p = ff.alloc(64);
    ff.free(p);
    const auto after = ff.stats();
    EXPECT_EQ(after.alloc_calls, before.alloc_calls + 1);
    EXPECT_EQ(after.free_calls, before.free_calls + 1);
}

}  // namespace
}  // namespace msw::baseline
