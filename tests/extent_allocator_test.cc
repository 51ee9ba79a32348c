// Extent-allocator tests: allocation/free/coalescing, page-map lookup,
// alignment, decay purging, and hook integration.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "alloc/extent_allocator.h"

namespace msw::alloc {
namespace {

constexpr std::size_t kHeapBytes = 256 << 20;

class ExtentAllocTest : public ::testing::Test
{
  protected:
    ExtentAllocator ea{kHeapBytes, /*decay_ms=*/0};
};

TEST_F(ExtentAllocTest, AllocReturnsCommittedWritableExtent)
{
    ExtentMeta* e = ea.alloc_extent(4, ExtentKind::kLarge);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->pages, 4u);
    EXPECT_TRUE(e->committed);
    std::memset(to_ptr(e->base), 0x5a, e->bytes());
}

TEST_F(ExtentAllocTest, DistinctExtentsDoNotOverlap)
{
    ExtentMeta* a = ea.alloc_extent(2, ExtentKind::kLarge);
    ExtentMeta* b = ea.alloc_extent(3, ExtentKind::kLarge);
    EXPECT_TRUE(a->end() <= b->base || b->end() <= a->base);
}

TEST_F(ExtentAllocTest, LookupFindsExtentForEveryInteriorPage)
{
    ExtentMeta* e = ea.alloc_extent(8, ExtentKind::kLarge);
    for (std::size_t off = 0; off < e->bytes(); off += vm::kPageSize) {
        EXPECT_EQ(ea.lookup_live(e->base + off), e);
        EXPECT_EQ(ea.peek_page_map(e->base + off), e);
    }
    EXPECT_EQ(ea.lookup_live(e->base + e->bytes() - 1), e);
}

/** A freed extent's pages map to nothing or to a free extent. */
bool
maps_to_free(const ExtentAllocator& ea, std::uintptr_t addr)
{
    const ExtentMeta* e = ea.peek_page_map(addr);
    return e == nullptr || e->kind == ExtentKind::kFree;
}

TEST_F(ExtentAllocTest, LookupReturnsNullAfterFree)
{
    ExtentMeta* e = ea.alloc_extent(4, ExtentKind::kLarge);
    const std::uintptr_t base = e->base;
    ea.free_extent(e);
    for (std::size_t off = 0; off < 4 * vm::kPageSize; off += vm::kPageSize)
        EXPECT_TRUE(maps_to_free(ea, base + off)) << "offset " << off;
}

TEST_F(ExtentAllocTest, LookupOutsideHeapReturnsNull)
{
    int local = 0;
    EXPECT_FALSE(ea.contains(to_addr(&local)));
    EXPECT_FALSE(ea.contains(0x1000));
    EXPECT_FALSE(ea.contains(ea.reservation().end()));
    EXPECT_TRUE(ea.contains(ea.reservation().base()));
}

TEST_F(ExtentAllocTest, FreedExtentIsReused)
{
    ExtentMeta* e = ea.alloc_extent(4, ExtentKind::kLarge);
    const std::uintptr_t base = e->base;
    ea.free_extent(e);
    ExtentMeta* f = ea.alloc_extent(4, ExtentKind::kLarge);
    EXPECT_EQ(f->base, base) << "exact-size free extent should be reused";
}

TEST_F(ExtentAllocTest, AdjacentFreesCoalesce)
{
    ExtentMeta* a = ea.alloc_extent(2, ExtentKind::kLarge);
    ExtentMeta* b = ea.alloc_extent(2, ExtentKind::kLarge);
    ASSERT_EQ(b->base, a->end()) << "bump allocation should be contiguous";
    const std::uintptr_t base = a->base;
    ea.free_extent(a);
    ea.free_extent(b);
    // A 4-page request must now fit into the coalesced hole.
    ExtentMeta* c = ea.alloc_extent(4, ExtentKind::kLarge);
    EXPECT_EQ(c->base, base);
}

TEST_F(ExtentAllocTest, OversizedFreeExtentIsSplit)
{
    ExtentMeta* big = ea.alloc_extent(16, ExtentKind::kLarge);
    const std::uintptr_t base = big->base;
    ea.free_extent(big);
    ExtentMeta* small = ea.alloc_extent(4, ExtentKind::kLarge);
    EXPECT_EQ(small->base, base);
    // The 12-page remainder must be reusable.
    ExtentMeta* rest = ea.alloc_extent(12, ExtentKind::kLarge);
    EXPECT_EQ(rest->base, base + 4 * vm::kPageSize);
}

TEST_F(ExtentAllocTest, AlignedAllocationRespectsAlignment)
{
    // Force some misalignment first.
    ea.alloc_extent(3, ExtentKind::kLarge);
    ExtentMeta* e = ea.alloc_extent(4, ExtentKind::kLarge, /*align_pages=*/8);
    EXPECT_TRUE(is_aligned(e->base, 8 * vm::kPageSize));
}

TEST_F(ExtentAllocTest, StatsTrackActiveAndCommitted)
{
    const ExtentStats before = ea.stats();
    ExtentMeta* e = ea.alloc_extent(10, ExtentKind::kLarge);
    const ExtentStats mid = ea.stats();
    EXPECT_EQ(mid.active_bytes, before.active_bytes + 10 * vm::kPageSize);
    EXPECT_GE(mid.committed_bytes, before.committed_bytes);
    ea.free_extent(e);
    const ExtentStats after = ea.stats();
    EXPECT_EQ(after.active_bytes, before.active_bytes);
}

TEST_F(ExtentAllocTest, PurgeAllDropsCommittedBytes)
{
    ExtentMeta* e = ea.alloc_extent(64, ExtentKind::kLarge);
    std::memset(to_ptr(e->base), 1, e->bytes());
    ea.free_extent(e);
    const ExtentStats before = ea.stats();
    EXPECT_GE(before.committed_bytes, 64 * vm::kPageSize);
    ea.purge_all();
    const ExtentStats after = ea.stats();
    EXPECT_LT(after.committed_bytes, before.committed_bytes);
    EXPECT_GT(after.purges, before.purges);
}

TEST_F(ExtentAllocTest, PurgedExtentIsRecommittedOnReuse)
{
    ExtentMeta* e = ea.alloc_extent(4, ExtentKind::kLarge);
    const std::uintptr_t base = e->base;
    std::memset(to_ptr(base), 0x77, 4 * vm::kPageSize);
    ea.free_extent(e);
    ea.purge_all();
    ExtentMeta* f = ea.alloc_extent(4, ExtentKind::kLarge);
    ASSERT_EQ(f->base, base);
    auto* p = reinterpret_cast<unsigned char*>(base);
    EXPECT_EQ(p[0], 0u) << "purged memory must come back zeroed";
    p[0] = 1;  // and writable
}

TEST_F(ExtentAllocTest, ManyAllocFreeCyclesStayBounded)
{
    // Churn must not leak address space: the frontier should stabilise.
    for (int round = 0; round < 50; ++round) {
        std::vector<ExtentMeta*> es;
        for (int i = 0; i < 20; ++i)
            es.push_back(ea.alloc_extent(1 + (i % 7), ExtentKind::kLarge));
        for (auto* e : es)
            ea.free_extent(e);
    }
    EXPECT_LT(ea.stats().mapped_frontier, 8u << 20)
        << "frontier should stay far below 8 MiB for this workload";
}

class HookRecorder : public ExtentHooks
{
  public:
    using ExtentHooks::ExtentHooks;
    int commits = 0;
    int purges = 0;

    [[nodiscard]] bool
    commit(std::uintptr_t addr, std::size_t len) override
    {
        ++commits;
        return ExtentHooks::commit(addr, len);
    }

    [[nodiscard]] bool
    purge(std::uintptr_t addr, std::size_t len) override
    {
        ++purges;
        return ExtentHooks::purge(addr, len);
    }
};

TEST(ExtentHooksTest, HooksObserveCommitAndPurge)
{
    ExtentAllocator ea(kHeapBytes, 0);
    HookRecorder hooks(&ea.reservation());
    ea.set_hooks(&hooks);
    ExtentMeta* e = ea.alloc_extent(4, ExtentKind::kLarge);
    EXPECT_EQ(hooks.commits, 1);
    ea.free_extent(e);
    EXPECT_EQ(hooks.purges, 0) << "no purge before decay/purge_all";
    ea.purge_all();
    EXPECT_EQ(hooks.purges, 1);
    // Reuse after purge must commit again.
    ea.alloc_extent(4, ExtentKind::kLarge);
    EXPECT_EQ(hooks.commits, 2);
}

TEST(ExtentHooksTest, DecommittedFreeStaysUncommittedAndMerges)
{
    ExtentAllocator ea(kHeapBytes, 0);
    HookRecorder hooks(&ea.reservation());
    ea.set_hooks(&hooks);
    ExtentMeta* a = ea.alloc_extent(4, ExtentKind::kLarge);
    ExtentMeta* b = ea.alloc_extent(8, ExtentKind::kLarge);
    ExtentMeta* c = ea.alloc_extent(2, ExtentKind::kLarge);
    ExtentMeta* guard = ea.alloc_extent(1, ExtentKind::kLarge);
    ASSERT_EQ(b->base, a->end());
    ASSERT_EQ(c->base, b->end());
    ASSERT_EQ(guard->base, c->end());
    const std::uintptr_t base = a->base;
    const auto pages = [](std::size_t n) { return n * vm::kPageSize; };
    EXPECT_EQ(ea.stats().committed_bytes, pages(15));

    // Left neighbour: freed committed, then purged.
    ea.free_extent(a);
    ea.purge_all();
    EXPECT_EQ(hooks.purges, 1);
    EXPECT_EQ(ea.stats().committed_bytes, pages(11));

    // The caller decommits b itself (as quarantine unmapping does) and
    // hands it back in that state: committed bytes drop exactly once.
    ASSERT_EQ(ea.reservation().decommit(b->base, b->bytes()),
              vm::VmStatus::kOk);
    ea.free_extent_decommitted(b);
    EXPECT_EQ(ea.stats().committed_bytes, pages(3));
    // Right neighbour stays committed: mixed states do not merge.
    ea.free_extent(c);
    EXPECT_EQ(ea.stats().committed_bytes, pages(3));
    // The post-sweep purge has only c left to do.
    ea.purge_all();
    EXPECT_EQ(hooks.purges, 2);
    EXPECT_EQ(ea.stats().committed_bytes, pages(1));

    // a and b merged into one uncommitted 12-page hole; reuse commits it.
    ExtentMeta* d = ea.alloc_extent(12, ExtentKind::kLarge);
    EXPECT_EQ(d->base, base);
    EXPECT_EQ(hooks.commits, 5);
    EXPECT_EQ(ea.stats().committed_bytes, pages(13));
    auto* p = reinterpret_cast<unsigned char*>(d->base);
    EXPECT_EQ(p[pages(6)], 0u);
    p[pages(6)] = 1;  // writable again
}

// The post-sweep purge, purge_stale(), purges only what was already free
// at the previous call: an extent freed within an epoch stays committed
// through the call that closes it, and reuse in between commits nothing.
TEST(ExtentHooksTest, PurgeStaleSparesWhatTheClosingEpochFreed)
{
    ExtentAllocator ea(kHeapBytes, 0);
    HookRecorder hooks(&ea.reservation());
    ea.set_hooks(&hooks);
    const auto pages = [](std::size_t n) { return n * vm::kPageSize; };
    ExtentMeta* a = ea.alloc_extent(4, ExtentKind::kLarge);
    ExtentMeta* guard = ea.alloc_extent(1, ExtentKind::kLarge);
    ASSERT_EQ(guard->base, a->end());
    const std::uintptr_t base = a->base;

    ea.free_extent(a);
    ea.purge_stale();
    EXPECT_EQ(hooks.purges, 0) << "an extent freed this epoch was purged";
    EXPECT_EQ(ea.stats().committed_bytes, pages(5));

    // Reused within the next epoch: no commit, nothing left to purge.
    ExtentMeta* b = ea.alloc_extent(4, ExtentKind::kLarge);
    EXPECT_EQ(b->base, base);
    EXPECT_EQ(hooks.commits, 2);
    ea.free_extent(b);
    ea.purge_stale();
    EXPECT_EQ(hooks.purges, 0) << "freed again this epoch: still fresh";

    // A whole epoch unused: the next call purges it.
    ea.purge_stale();
    EXPECT_EQ(hooks.purges, 1);
    EXPECT_EQ(ea.stats().committed_bytes, pages(1));

    // purge_all() still purges every committed free extent, fresh or not.
    ExtentMeta* c = ea.alloc_extent(2, ExtentKind::kLarge);
    ea.free_extent(c);
    ea.purge_all();
    EXPECT_EQ(hooks.purges, 2);
    EXPECT_EQ(ea.stats().committed_bytes, pages(1));
}

TEST(ExtentHooksTest, FreshFreeKeepsApartFromAStaleNeighbour)
{
    ExtentAllocator ea(kHeapBytes, 0);
    HookRecorder hooks(&ea.reservation());
    ea.set_hooks(&hooks);
    const auto pages = [](std::size_t n) { return n * vm::kPageSize; };
    ExtentMeta* a = ea.alloc_extent(4, ExtentKind::kLarge);
    ExtentMeta* b = ea.alloc_extent(8, ExtentKind::kLarge);
    ExtentMeta* guard = ea.alloc_extent(1, ExtentKind::kLarge);
    ASSERT_EQ(b->base, a->end());
    ASSERT_EQ(guard->base, b->end());
    const std::uintptr_t base = a->base;

    ea.free_extent(a);
    ea.purge_stale();  // a survives: freed in the epoch this closes
    // b is freed in the next epoch. Merged into a, it would keep a's
    // pages committed for another epoch; kept apart, a goes on time.
    ea.free_extent(b);
    ea.purge_stale();
    EXPECT_EQ(hooks.purges, 1);
    EXPECT_EQ(ea.stats().committed_bytes, pages(9));
    ea.purge_stale();
    EXPECT_EQ(hooks.purges, 2);
    EXPECT_EQ(ea.stats().committed_bytes, pages(1));

    // Both purged, they merged into one uncommitted 12-page hole.
    ExtentMeta* d = ea.alloc_extent(12, ExtentKind::kLarge);
    EXPECT_EQ(d->base, base);
}

TEST(ExtentHooksTest, SplitKeepsTheFreeExtentsAge)
{
    ExtentAllocator ea(kHeapBytes, 0);
    HookRecorder hooks(&ea.reservation());
    ea.set_hooks(&hooks);
    const auto pages = [](std::size_t n) { return n * vm::kPageSize; };
    ExtentMeta* a = ea.alloc_extent(8, ExtentKind::kLarge);
    ExtentMeta* guard = ea.alloc_extent(1, ExtentKind::kLarge);
    ASSERT_EQ(guard->base, a->end());

    ea.free_extent(a);
    ea.purge_stale();
    // Two pages of a are reused; the six-page remainder is as old as a,
    // so the next call purges it rather than granting it a new epoch.
    ExtentMeta* b = ea.alloc_extent(2, ExtentKind::kLarge);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(hooks.commits, 2);
    ea.purge_stale();
    EXPECT_EQ(hooks.purges, 1);
    EXPECT_EQ(ea.stats().committed_bytes, pages(3));
}

TEST(ExtentDecayTest, DecayPurgesOldFreeExtents)
{
    ExtentAllocator ea(kHeapBytes, /*decay_ms=*/1);
    ExtentMeta* e = ea.alloc_extent(32, ExtentKind::kLarge);
    std::memset(to_ptr(e->base), 1, e->bytes());
    ea.free_extent(e);
    const ExtentStats before = ea.stats();
    usleep(5000);
    ea.decay_tick();
    const ExtentStats after = ea.stats();
    EXPECT_LT(after.committed_bytes, before.committed_bytes);
}

}  // namespace
}  // namespace msw::alloc
