// Marker and worker-pool tests: pointer discovery in scanned ranges,
// chunking, parallel dispatch, the page-access map, and the pagemap
// residency filter.
#include <gtest/gtest.h>

#include <sys/mman.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "sweep/page_access_map.h"
#include "sweep/residency.h"
#include "sweep/sweeper.h"
#include "vm/vm.h"

namespace msw::sweep {
namespace {

class MarkerTest : public ::testing::Test
{
  protected:
    MarkerTest()
        : heap(vm::Reservation::reserve(16 << 20)),
          shadow(heap.base(), heap.size()),
          marker(&shadow, heap.base(), heap.end())
    {
        heap.commit_must(heap.base(), heap.size());
    }

    vm::Reservation heap;
    ShadowMap shadow;
    Marker marker;

    // A scannable buffer outside the heap.
    alignas(8) std::uint64_t buffer[1024] = {};
};

TEST_F(MarkerTest, FindsPointerIntoHeap)
{
    buffer[10] = heap.base() + 4096;
    const MarkStats stats =
        marker.mark_one(Range{to_addr(buffer), sizeof(buffer)});
    EXPECT_EQ(stats.pointers_found, 1u);
    EXPECT_TRUE(shadow.test(heap.base() + 4096));
}

TEST_F(MarkerTest, IgnoresNonHeapValues)
{
    buffer[0] = 0x12345678;
    buffer[1] = heap.base() - 8;   // just below
    buffer[2] = heap.end();        // one past
    buffer[3] = 0;
    const MarkStats stats =
        marker.mark_one(Range{to_addr(buffer), sizeof(buffer)});
    EXPECT_EQ(stats.pointers_found, 0u);
}

TEST_F(MarkerTest, FirstAndLastHeapByteCount)
{
    buffer[0] = heap.base();
    buffer[1] = heap.end() - 1;
    const MarkStats stats =
        marker.mark_one(Range{to_addr(buffer), sizeof(buffer)});
    EXPECT_EQ(stats.pointers_found, 2u);
    EXPECT_TRUE(shadow.test(heap.base()));
    EXPECT_TRUE(shadow.test(heap.end() - 1));
}

TEST_F(MarkerTest, InteriorPointersMarkInteriorGranules)
{
    buffer[0] = heap.base() + 1000;  // interior of some allocation
    marker.mark_one(Range{to_addr(buffer), sizeof(buffer)});
    EXPECT_TRUE(shadow.test_range(heap.base() + 512, 1024));
    EXPECT_FALSE(shadow.test_range(heap.base() + 1024, 1024));
}

TEST_F(MarkerTest, MisalignedWordsAreNotSeen)
{
    // A pointer at an odd byte offset is invisible to the aligned scan —
    // the paper's "correctly aligned" design point (§1.2).
    char raw[64] = {};
    const std::uint64_t value = heap.base() + 64;
    std::memcpy(raw + 1, &value, sizeof(value));
    marker.mark_one(Range{to_addr(raw), sizeof(raw)});
    EXPECT_FALSE(shadow.test(heap.base() + 64));
}

TEST_F(MarkerTest, ScansHeapItselfForHeapPointers)
{
    // Pointer stored *inside* the heap (live object referencing another).
    auto* in_heap = reinterpret_cast<std::uint64_t*>(heap.base() + 8192);
    in_heap[0] = heap.base() + 123456;
    marker.mark_one(Range{heap.base() + 8192, 64});
    EXPECT_TRUE(shadow.test(heap.base() + 123456));
}

TEST_F(MarkerTest, XoredPointerIsHidden)
{
    buffer[0] = (heap.base() + 4096) ^ 0xdeadbeefcafebabeull;
    const MarkStats stats =
        marker.mark_one(Range{to_addr(buffer), sizeof(buffer)});
    // Value lands far outside the heap: legitimately not found.
    EXPECT_FALSE(shadow.test(heap.base() + 4096));
    (void)stats;
}

TEST_F(MarkerTest, ParallelMarkingFindsEverything)
{
    // Fill 8 MiB of heap with pointers to pseudo-random heap locations,
    // then mark in parallel and verify all targets are set.
    auto* words = reinterpret_cast<std::uint64_t*>(heap.base());
    const std::size_t n = (8 << 20) / sizeof(std::uint64_t);
    for (std::size_t i = 0; i < n; ++i)
        words[i] = heap.base() + (i * 2654435761u) % heap.size();

    SweepWorkers workers(3);
    const MarkStats stats = marker.mark_ranges(
        {Range{heap.base(), 8 << 20}}, &workers);
    EXPECT_EQ(stats.pointers_found, n);
    EXPECT_EQ(stats.bytes_scanned, std::uint64_t{8} << 20);
    for (std::size_t i = 0; i < n; i += 97)
        ASSERT_TRUE(
            shadow.test(heap.base() + (i * 2654435761u) % heap.size()));
}

TEST(ChunkRanges, SplitsAndPreservesCoverage)
{
    std::vector<Range> ranges = {Range{0, 1000}, Range{5000, 3000}};
    const auto chunks = chunk_ranges(ranges, 1024);
    std::size_t total = 0;
    for (const Range& c : chunks) {
        EXPECT_LE(c.len, 1024u);
        total += c.len;
    }
    EXPECT_EQ(total, 4000u);
    EXPECT_EQ(chunks.size(), 4u);  // 1000 | 1024+1024+952
}

TEST(ChunkRanges, EmptyInput)
{
    EXPECT_TRUE(chunk_ranges({}, 1024).empty());
}

TEST(SweepWorkersTest, RunsJobOnAllWorkers)
{
    SweepWorkers workers(3);
    EXPECT_EQ(workers.count(), 4u);
    std::atomic<unsigned> mask{0};
    workers.run([&](unsigned index) {
        mask.fetch_or(1u << index, std::memory_order_relaxed);
    });
    EXPECT_EQ(mask.load(), 0b1111u);
}

TEST(SweepWorkersTest, SequentialRunsAreIsolated)
{
    SweepWorkers workers(2);
    for (int round = 0; round < 100; ++round) {
        std::atomic<int> count{0};
        workers.run([&](unsigned) { count.fetch_add(1); });
        ASSERT_EQ(count.load(), 3);
    }
}

TEST(SweepWorkersTest, ZeroHelpersRunsCallerOnly)
{
    SweepWorkers workers(0);
    int runs = 0;
    workers.run([&](unsigned index) {
        EXPECT_EQ(index, 0u);
        ++runs;
    });
    EXPECT_EQ(runs, 1);
}

TEST(SweepWorkersTest, HelperCpuTimeAccumulates)
{
    SweepWorkers workers(2);
    workers.run([&](unsigned) {
        volatile std::uint64_t x = 0;
        for (int i = 0; i < 2000000; ++i)
            x += i;
    });
    EXPECT_GT(workers.helper_cpu_ns(), 0u);
}

TEST(PageAccessMapTest, SetClearAndRuns)
{
    const std::uintptr_t base = std::uintptr_t{1} << 40;
    PageAccessMap map(base, 1 << 20);  // 256 pages
    EXPECT_EQ(map.committed_bytes(), 0u);
    map.set_range(base, 3 * vm::kPageSize);
    map.set_range(base + 10 * vm::kPageSize, 2 * vm::kPageSize);
    EXPECT_EQ(map.committed_bytes(), 5 * vm::kPageSize);
    EXPECT_TRUE(map.test(base));
    EXPECT_TRUE(map.test(base + 2 * vm::kPageSize + 5));
    EXPECT_FALSE(map.test(base + 3 * vm::kPageSize));

    const auto runs = map.committed_runs();
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].base, base);
    EXPECT_EQ(runs[0].len, 3 * vm::kPageSize);
    EXPECT_EQ(runs[1].base, base + 10 * vm::kPageSize);
    EXPECT_EQ(runs[1].len, 2 * vm::kPageSize);

    map.clear_range(base + vm::kPageSize, vm::kPageSize);
    EXPECT_EQ(map.committed_bytes(), 4 * vm::kPageSize);
    EXPECT_EQ(map.committed_runs().size(), 3u);
}

TEST(PageAccessMapTest, IdempotentUpdatesKeepCountExact)
{
    const std::uintptr_t base = std::uintptr_t{1} << 40;
    PageAccessMap map(base, 1 << 20);
    map.set_range(base, 4 * vm::kPageSize);
    map.set_range(base, 4 * vm::kPageSize);  // again
    EXPECT_EQ(map.committed_bytes(), 4 * vm::kPageSize);
    map.clear_range(base, 2 * vm::kPageSize);
    map.clear_range(base, 2 * vm::kPageSize);  // again
    EXPECT_EQ(map.committed_bytes(), 2 * vm::kPageSize);

    // Ranges straddling 64-page bitmap words, overlapping what is
    // already set: only the bits that flip count.
    const auto page = [&](std::size_t i) {
        return base + i * vm::kPageSize;
    };
    map.clear_range(base, 4 * vm::kPageSize);
    map.set_range(page(60), 10 * vm::kPageSize);  // 60..69
    EXPECT_EQ(map.committed_bytes(), 10 * vm::kPageSize);
    map.set_range(page(50), 150 * vm::kPageSize);  // 50..199, 3 words
    EXPECT_EQ(map.committed_bytes(), 150 * vm::kPageSize);
    map.set_range(page(64), 64 * vm::kPageSize);  // one exact word, again
    EXPECT_EQ(map.committed_bytes(), 150 * vm::kPageSize);
    map.clear_range(page(63), 66 * vm::kPageSize);  // 63..128
    EXPECT_EQ(map.committed_bytes(), 84 * vm::kPageSize);
    map.clear_range(page(63), 66 * vm::kPageSize);  // again
    EXPECT_EQ(map.committed_bytes(), 84 * vm::kPageSize);
    EXPECT_TRUE(map.test(page(62)));
    EXPECT_FALSE(map.test(page(63)));
    EXPECT_FALSE(map.test(page(128)));
    EXPECT_TRUE(map.test(page(129)));
    const auto runs = map.committed_runs();
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].base, page(50));
    EXPECT_EQ(runs[0].len, 13 * vm::kPageSize);
    EXPECT_EQ(runs[1].base, page(129));
    EXPECT_EQ(runs[1].len, 71 * vm::kPageSize);
    map.clear_range(base, 256 * vm::kPageSize);
    EXPECT_EQ(map.committed_bytes(), 0u);
}

// ------------------------------------------------------------ residency

/** Synthetic pagemap: one word per page of a fake address space. */
struct FakePagemap {
    std::uintptr_t base = 0;
    std::vector<std::uint64_t> words;
    bool fail = false;

    static std::size_t
    read(void* ctx, std::uintptr_t page, std::uint64_t* out,
         std::size_t count)
    {
        auto* self = static_cast<FakePagemap*>(ctx);
        if (self->fail)
            return 0;
        for (std::size_t i = 0; i < count; ++i) {
            const std::size_t idx = ((page - self->base) >> vm::kPageShift) + i;
            out[i] = idx < self->words.size() ? self->words[idx] : 0;
        }
        return count;
    }
};

TEST(Residency, KeepsPresentAndSwappedPagesOnly)
{
    FakePagemap pm;
    pm.base = std::uintptr_t{1} << 40;
    pm.words.assign(16, 0);
    pm.words[1] = kPagemapPresent | 0x1234;  // present (PFN bits ignored)
    pm.words[2] = kPagemapSwapped;          // swapped out: still data
    pm.words[3] = kPagemapPresent;
    pm.words[6] = std::uint64_t{1} << 55;   // soft-dirty only: neither
    pm.words[9] = kPagemapSwapped;
    std::vector<Range> out;
    append_resident_subranges({Range{pm.base, 16 * vm::kPageSize}},
                              &FakePagemap::read, &pm, &out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].base, pm.base + vm::kPageSize);
    EXPECT_EQ(out[0].len, 3 * vm::kPageSize);
    EXPECT_EQ(out[1].base, pm.base + 9 * vm::kPageSize);
    EXPECT_EQ(out[1].len, vm::kPageSize);
}

TEST(Residency, ClipsToUnalignedBounds)
{
    FakePagemap pm;
    pm.base = std::uintptr_t{1} << 40;
    pm.words.assign(8, kPagemapPresent);
    pm.words[4] = 0;
    std::vector<Range> out;
    append_resident_subranges(
        {Range{pm.base + 100, vm::kPageSize},
         Range{pm.base + 3 * vm::kPageSize + 8, 3 * vm::kPageSize}},
        &FakePagemap::read, &pm, &out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].base, pm.base + 100);
    EXPECT_EQ(out[0].len, vm::kPageSize);
    EXPECT_EQ(out[1].base, pm.base + 3 * vm::kPageSize + 8);
    EXPECT_EQ(out[1].end(), pm.base + 4 * vm::kPageSize);
    EXPECT_EQ(out[2].base, pm.base + 5 * vm::kPageSize);
    EXPECT_EQ(out[2].end(), pm.base + 6 * vm::kPageSize + 8);
}

TEST(Residency, UnreadablePagemapKeepsEveryPage)
{
    FakePagemap pm;
    pm.base = std::uintptr_t{1} << 40;
    pm.fail = true;
    std::vector<Range> out;
    append_resident_subranges({Range{pm.base, 4 * vm::kPageSize}},
                              &FakePagemap::read, &pm, &out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].base, pm.base);
    EXPECT_EQ(out[0].len, 4 * vm::kPageSize);
}

TEST(Residency, RealPagemapSeesTouchedPagesOnly)
{
    constexpr std::size_t kPages = 16;
    vm::Reservation r = vm::Reservation::reserve(kPages * vm::kPageSize);
    r.commit_must(r.base(), r.size());
    const Range all{r.base(), r.size()};
    std::vector<Range> out;
    sweep::append_resident_subranges({all}, &out);
    if (out.size() == 1 && out[0].len == r.size())
        GTEST_SKIP() << "/proc/self/pagemap unavailable";
    EXPECT_TRUE(out.empty());
    static_cast<volatile char*>(to_ptr(r.base()))[vm::kPageSize] = 1;
    static_cast<volatile char*>(to_ptr(r.base()))[5 * vm::kPageSize] = 1;
    // With the upper half unmapped, mincore fails for the whole range;
    // pagemap still finds the touched pages and reads the hole as absent.
    for (bool hole : {false, true}) {
        if (hole)
            ::munmap(to_ptr(r.base() + 8 * vm::kPageSize),
                     8 * vm::kPageSize);
        out.clear();
        sweep::append_resident_subranges({all}, &out);
        ASSERT_EQ(out.size(), 2u) << hole;
        EXPECT_EQ(out[0].base, r.base() + vm::kPageSize);
        EXPECT_EQ(out[0].len, vm::kPageSize);
        EXPECT_EQ(out[1].base, r.base() + 5 * vm::kPageSize);
        EXPECT_EQ(out[1].len, vm::kPageSize);
    }
}

}  // namespace
}  // namespace msw::sweep
