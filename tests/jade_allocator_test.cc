// JadeHeap end-to-end tests: malloc/free semantics, size classes, thread
// caches, large allocations, alignment, realloc, lookup_relaxed, stats,
// and multi-threaded stress.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <thread>
#include <unordered_set>
#include <vector>

#include "alloc/jade_allocator.h"
#include "util/rng.h"

namespace msw::alloc {
namespace {

/**
 * True if @p p no longer holds an allocation: its slot is clear in its
 * slab's bitmap, or its slab or large extent went back to the extent
 * allocator (the page map names no extent or a free one).
 */
bool
reads_free(const JadeAllocator& jade, const void* p)
{
    const ExtentMeta* e = jade.extents().peek_page_map(to_addr(p));
    if (e == nullptr || e->kind == ExtentKind::kFree)
        return true;
    if (e->kind == ExtentKind::kLarge)
        return false;
    return !e->slot_allocated(
        static_cast<unsigned>((to_addr(p) - e->base) / class_size(e->cls)));
}

class JadeTest : public ::testing::Test
{
  protected:
    JadeAllocator::Options
    options()
    {
        JadeAllocator::Options o;
        o.heap_bytes = std::size_t{1} << 30;
        o.decay_ms = 0;
        return o;
    }

    JadeAllocator jade{options()};
};

TEST_F(JadeTest, AllocReturnsWritableMemory)
{
    void* p = jade.alloc(100);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xcd, 100);
    jade.free(p);
}

TEST_F(JadeTest, ZeroSizeAllocationIsValid)
{
    void* p = jade.alloc(0);
    ASSERT_NE(p, nullptr);
    EXPECT_GE(jade.usable_size(p), 1u);
    jade.free(p);
}

TEST_F(JadeTest, FreeNullIsNoop)
{
    jade.free(nullptr);
}

TEST_F(JadeTest, UsableSizeCoversRequest)
{
    for (std::size_t size : {1ul, 16ul, 17ul, 100ul, 4096ul, 14336ul,
                             14337ul, 100000ul, 5000000ul}) {
        void* p = jade.alloc(size);
        EXPECT_GE(jade.usable_size(p), size) << size;
        jade.free(p);
    }
}

TEST_F(JadeTest, SmallAllocationsAreGranuleAligned)
{
    for (std::size_t size = 1; size <= 512; size += 13) {
        void* p = jade.alloc(size);
        EXPECT_TRUE(is_aligned(to_addr(p), kGranule)) << size;
        jade.free(p);
    }
}

TEST_F(JadeTest, LargeAllocationsArePageAligned)
{
    void* p = jade.alloc(1 << 20);
    EXPECT_TRUE(is_aligned(to_addr(p), vm::kPageSize));
    jade.free(p);
}

TEST_F(JadeTest, DistinctLiveAllocationsDoNotOverlap)
{
    struct Range {
        std::uintptr_t lo, hi;
    };
    std::vector<Range> live;
    std::vector<void*> ptrs;
    Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        const std::size_t size = 1 + rng.next_below(300);
        void* p = jade.alloc(size);
        const std::uintptr_t lo = to_addr(p);
        const std::uintptr_t hi = lo + jade.usable_size(p);
        for (const Range& r : live)
            ASSERT_TRUE(hi <= r.lo || r.hi <= lo)
                << "overlap at iteration " << i;
        live.push_back({lo, hi});
        ptrs.push_back(p);
    }
    for (void* p : ptrs)
        jade.free(p);
}

TEST_F(JadeTest, MemoryIsReusedAfterFree)
{
    // Same-class alloc after free should come from the thread cache (LIFO).
    void* a = jade.alloc(64);
    jade.free(a);
    void* b = jade.alloc(64);
    EXPECT_EQ(a, b);
    jade.free(b);
}

TEST_F(JadeTest, ContentsArePreservedWhileLive)
{
    std::vector<void*> ptrs;
    for (int i = 0; i < 500; ++i) {
        auto* p = static_cast<int*>(jade.alloc(sizeof(int) * 8));
        p[0] = i;
        p[7] = ~i;
        ptrs.push_back(p);
    }
    for (int i = 0; i < 500; ++i) {
        auto* p = static_cast<int*>(ptrs[i]);
        ASSERT_EQ(p[0], i);
        ASSERT_EQ(p[7], ~i);
        jade.free(p);
    }
}

TEST_F(JadeTest, AlignedAllocHonoursAlignment)
{
    for (std::size_t align : {16ul, 32ul, 64ul, 128ul, 256ul, 1024ul,
                              4096ul, 16384ul}) {
        for (std::size_t size : {1ul, 100ul, 5000ul, 20000ul}) {
            void* p = jade.alloc_aligned(align, size);
            ASSERT_NE(p, nullptr);
            EXPECT_TRUE(is_aligned(to_addr(p), align))
                << "align " << align << " size " << size;
            EXPECT_GE(jade.usable_size(p), size);
            jade.free(p);
        }
    }
}

TEST_F(JadeTest, ReallocGrowsAndPreservesData)
{
    auto* p = static_cast<char*>(jade.alloc(64));
    std::memset(p, 'x', 64);
    auto* q = static_cast<char*>(jade.realloc(p, 100000));
    for (int i = 0; i < 64; ++i)
        ASSERT_EQ(q[i], 'x');
    jade.free(q);
}

TEST_F(JadeTest, ReallocSameSizeKeepsPointer)
{
    void* p = jade.alloc(100);
    EXPECT_EQ(jade.realloc(p, 101), p);
    jade.free(p);
}

TEST_F(JadeTest, ReallocNullBehavesLikeAlloc)
{
    void* p = jade.realloc(nullptr, 50);
    ASSERT_NE(p, nullptr);
    jade.free(p);
}

TEST_F(JadeTest, LookupAllocationFindsInteriorPointers)
{
    auto* p = static_cast<char*>(jade.alloc(1000));
    JadeAllocator::AllocationInfo info;
    ASSERT_TRUE(jade.lookup_relaxed(to_addr(p) + 500, &info));
    EXPECT_EQ(info.base, to_addr(p));
    EXPECT_GE(info.usable, 1000u);
    jade.free(p);
}

TEST_F(JadeTest, LookupAllocationLargeInterior)
{
    auto* p = static_cast<char*>(jade.alloc(1 << 20));
    JadeAllocator::AllocationInfo info;
    ASSERT_TRUE(jade.lookup_relaxed(to_addr(p) + (1 << 19), &info));
    EXPECT_EQ(info.base, to_addr(p));
    EXPECT_GE(info.usable, std::size_t{1} << 20);
    jade.free(p);
    // The freed extent holds no allocation any more.
    EXPECT_FALSE(jade.lookup_relaxed(to_addr(p), &info));
    EXPECT_FALSE(jade.lookup_relaxed(to_addr(p) + (1 << 19), &info));
}

TEST_F(JadeTest, LookupAllocationSeesFreedSlotAsDead)
{
    void* p = jade.alloc(64);
    jade.flush();  // ensure the free below reaches the bin, not the tcache
    jade.free(p);
    jade.flush();
    EXPECT_TRUE(reads_free(jade, p));
}

TEST_F(JadeTest, LookupRejectsNonHeapAddresses)
{
    int local = 0;
    JadeAllocator::AllocationInfo info;
    EXPECT_FALSE(jade.lookup_relaxed(to_addr(&local), &info));
    EXPECT_FALSE(jade.lookup_relaxed(jade.reservation().end(), &info));

    // Slab tail waste holds no object either. No size class leaves tail
    // waste in its own slab, but a stale class read from reused metadata
    // can, so a slot index past the class's last slot must be rejected.
    const unsigned big = size_to_class(80);    // 5-page slabs
    const unsigned small = size_to_class(64);  // 64 slots fill one page
    void* p = jade.alloc(class_size(big));
    ExtentMeta* slab = jade.extents().lookup_live(to_addr(p));
    const std::uintptr_t tail =
        slab->base + class_size(small) * slab_slots(small);
    ASSERT_LT(tail, slab->end());
    slab->set_cls(static_cast<std::uint16_t>(small));
    EXPECT_TRUE(jade.lookup_relaxed(slab->base, &info));
    EXPECT_FALSE(jade.lookup_relaxed(tail, &info));
    EXPECT_FALSE(jade.lookup_relaxed(slab->end() - 1, &info));
    slab->set_cls(static_cast<std::uint16_t>(big));
    jade.free(p);
}

TEST_F(JadeTest, StatsTrackLiveBytes)
{
    const std::size_t before = jade.live_bytes();
    void* p = jade.alloc(1000);
    EXPECT_GE(jade.live_bytes(), before + 1000);
    jade.free(p);
    EXPECT_EQ(jade.live_bytes(), before);
}

TEST_F(JadeTest, StatsCountCalls)
{
    const AllocatorStats before = jade.stats();
    void* p = jade.alloc(10);
    jade.free(p);
    const AllocatorStats after = jade.stats();
    EXPECT_EQ(after.alloc_calls, before.alloc_calls + 1);
    EXPECT_EQ(after.free_calls, before.free_calls + 1);
}

TEST_F(JadeTest, FreeDirectBypassesThreadCache)
{
    void* p = jade.alloc(64);
    const std::size_t live = jade.live_bytes();
    jade.free_direct_batch(&p, 1);
    // The object must be back in the bin, not in this thread's cache,
    // and live accounting must be exact.
    EXPECT_TRUE(reads_free(jade, p));
    EXPECT_EQ(jade.live_bytes(), live - 64);
}

TEST_F(JadeTest, SlabsAreReleasedWhenEmptied)
{
    // Allocate enough objects of one class to build several slabs, then
    // free them all; active bytes must drop back.
    std::vector<void*> ptrs;
    for (int i = 0; i < 5000; ++i)
        ptrs.push_back(jade.alloc(128));
    const std::size_t active_peak = jade.extents().stats().active_bytes;
    for (void* p : ptrs)
        jade.free(p);
    jade.flush();
    const std::size_t active_after = jade.extents().stats().active_bytes;
    EXPECT_LT(active_after, active_peak / 4);
}

/**
 * One bin over its own extent allocator, three full slabs of 64-byte
 * objects. release() frees a slab's slots [first, first+n) either one
 * free_one() at a time or in one free_batch().
 */
struct BinRig {
    ExtentAllocator ea{64 << 20, /*decay_ms=*/0};
    Bin bin;
    unsigned nslots = slab_slots(size_to_class(64));
    std::vector<void*> objs;

    BinRig()
    {
        bin.init(&ea, size_to_class(64), nullptr);
        objs.resize(3 * nslots);
        EXPECT_EQ(bin.alloc_batch(objs.data(), 3 * nslots), 3 * nslots);
    }

    ExtentMeta*
    slab(unsigned s)
    {
        return ea.lookup_live(to_addr(objs[s * nslots]));
    }

    void
    release(unsigned s, unsigned first, unsigned n, bool batch)
    {
        ExtentMeta* meta = slab(s);
        void* const* ptrs = &objs[s * nslots + first];
        if (batch) {
            bin.free_batch(meta, ptrs, n);
        } else {
            for (unsigned i = 0; i < n; ++i)
                bin.free_one(ptrs[i], meta);
        }
    }

    /** Offsets (from the heap base) of the next @p n allocations. */
    std::vector<std::uintptr_t>
    refill(unsigned n)
    {
        std::vector<void*> out(n);
        EXPECT_EQ(bin.alloc_batch(out.data(), n), n);
        std::vector<std::uintptr_t> offsets;
        for (void* p : out)
            offsets.push_back(to_addr(p) - ea.reservation().base());
        return offsets;
    }
};

TEST(BinTest, FreeBatchFollowsFreeOneSlabRules)
{
    BinRig one;
    BinRig batch;
    const std::size_t slab_bytes = one.slab(0)->bytes();
    const std::size_t full = one.ea.stats().active_bytes;
    ASSERT_EQ(batch.ea.stats().active_bytes, full);
    for (BinRig* rig : {&one, &batch}) {
        const bool b = rig == &batch;
        // Slab 0 keeps one live slot: it rejoins the nonfull list.
        rig->release(0, 1, rig->nslots - 1, b);
        EXPECT_EQ(rig->slab(0)->used_slots, 1u);
        // Slab 1 empties: it becomes the bin's cached empty slab.
        rig->release(1, 0, rig->nslots, b);
        EXPECT_EQ(rig->ea.stats().active_bytes, full);
        // Slab 2 empties with a slab already cached: its extent goes.
        ExtentMeta* s2 = rig->slab(2);
        const std::uintptr_t s2_base = s2->base;
        rig->release(2, 0, rig->nslots, b);
        EXPECT_EQ(rig->ea.stats().active_bytes, full - slab_bytes);
        const ExtentMeta* gone = rig->ea.peek_page_map(s2_base);
        EXPECT_TRUE(gone == nullptr || gone->kind == ExtentKind::kFree);
    }
    // Both bins then refill identically: slab 0's free slots first, then
    // the cached slab.
    EXPECT_EQ(one.refill(2 * one.nslots), batch.refill(2 * batch.nslots));
    EXPECT_EQ(one.ea.stats().active_bytes, batch.ea.stats().active_bytes);
}

TEST_F(JadeTest, FreeDirectBatchKeepsStatsExact)
{
    std::vector<void*> ptrs;
    for (int i = 0; i < 300; ++i)
        ptrs.push_back(jade.alloc(i % 3 == 0 ? 40000 : 16 + (i % 7) * 48));
    jade.flush();
    const AllocatorStats before = jade.stats();
    std::size_t bytes = 0;
    for (void* p : ptrs)
        bytes += jade.usable_size(p);
    // Interleave slabs and large extents; the batch groups by slab.
    jade.free_direct_batch(ptrs.data(), ptrs.size());
    const AllocatorStats after = jade.stats();
    EXPECT_EQ(after.free_calls - before.free_calls, ptrs.size());
    EXPECT_EQ(before.live_bytes - after.live_bytes, bytes);
    for (void* p : ptrs)
        EXPECT_TRUE(reads_free(jade, p));
}

TEST_F(JadeTest, RandomChurnMaintainsIntegrity)
{
    // Property test: randomly allocate/free with canary values; canaries
    // must survive until their free.
    struct Obj {
        void* ptr;
        std::size_t size;
        unsigned char canary;
    };
    std::vector<Obj> live;
    Rng rng(99);
    for (int i = 0; i < 30000; ++i) {
        if (live.empty() || rng.next_bool(0.55)) {
            const std::size_t size = 1 + static_cast<std::size_t>(
                                             rng.next_lognormal(4.0, 1.5));
            auto canary = static_cast<unsigned char>(rng.next_below(256));
            void* p = jade.alloc(size);
            std::memset(p, canary, size);
            live.push_back({p, size, canary});
        } else {
            const std::size_t idx = rng.next_below(live.size());
            Obj o = live[idx];
            auto* bytes = static_cast<unsigned char*>(o.ptr);
            ASSERT_EQ(bytes[0], o.canary);
            ASSERT_EQ(bytes[o.size - 1], o.canary);
            ASSERT_EQ(bytes[o.size / 2], o.canary);
            jade.free(o.ptr);
            live[idx] = live.back();
            live.pop_back();
        }
    }
    for (const Obj& o : live)
        jade.free(o.ptr);
}

TEST_F(JadeTest, MultiThreadedChurnIsSafe)
{
    const int kThreads = 4;
    const int kIters = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(1000 + t);
            std::vector<std::pair<void*, unsigned char>> mine;
            for (int i = 0; i < kIters; ++i) {
                if (mine.empty() || rng.next_bool(0.5)) {
                    const std::size_t size = 1 + rng.next_below(2000);
                    auto canary =
                        static_cast<unsigned char>(rng.next_below(256));
                    void* p = jade.alloc(size);
                    std::memset(p, canary, size);
                    mine.emplace_back(p, canary);
                } else {
                    const std::size_t idx = rng.next_below(mine.size());
                    auto [p, canary] = mine[idx];
                    ASSERT_EQ(*static_cast<unsigned char*>(p), canary);
                    jade.free(p);
                    mine[idx] = mine.back();
                    mine.pop_back();
                }
            }
            for (auto [p, canary] : mine)
                jade.free(p);
            jade.flush();
        });
    }
    for (auto& th : threads)
        th.join();
}

TEST_F(JadeTest, CrossThreadFreeIsSafe)
{
    // Allocate on one thread, free on another (producer/consumer pattern).
    std::vector<void*> ptrs;
    std::thread producer([&] {
        for (int i = 0; i < 10000; ++i)
            ptrs.push_back(jade.alloc(1 + (i % 500)));
        jade.flush();
    });
    producer.join();
    std::thread consumer([&] {
        for (void* p : ptrs)
            jade.free(p);
        jade.flush();
    });
    consumer.join();
    EXPECT_EQ(jade.live_bytes(), 0u);
}

TEST(JadeNoTcache, WorksWithThreadCacheDisabled)
{
    JadeAllocator::Options o;
    o.heap_bytes = 256 << 20;
    o.enable_tcache = false;
    JadeAllocator jade(o);
    std::vector<void*> ptrs;
    for (int i = 0; i < 1000; ++i)
        ptrs.push_back(jade.alloc(1 + (i % 300)));
    for (void* p : ptrs)
        jade.free(p);
    EXPECT_EQ(jade.live_bytes(), 0u);
}

TEST(JadeLifecycle, ThreadExitFlushesItsCache)
{
    JadeAllocator jade;
    void* p = nullptr;
    std::thread worker([&] {
        p = jade.alloc(64);
        jade.free(p);  // lands in the worker's tcache
    });
    worker.join();  // tcache destructor must flush to the bin
    // After the flush the object must be genuinely free (or its slab
    // released entirely).
    EXPECT_TRUE(reads_free(jade, p));
}

}  // namespace
}  // namespace msw::alloc
