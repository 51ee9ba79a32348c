// Dirty-tracker tests, parameterised over the available backends so the
// soft-dirty and mprotect implementations are held to the same contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <thread>

#include "sweep/dirty_tracker.h"
#include "util/bits.h"
#include "vm/vm.h"

namespace msw::sweep {
namespace {

struct Backend {
    std::string name;
    std::function<std::unique_ptr<DirtyTracker>(const vm::Reservation*)>
        make;
};

// Without this gtest prints a Backend as its raw bytes, which hold heap
// and code addresses; the printed value ends up in the discovered ctest
// name, so the name would change from one build (and one ASLR layout) to
// the next.
void
PrintTo(const Backend& backend, std::ostream* os)
{
    *os << backend.name;
}

std::vector<Backend>
available_backends()
{
    std::vector<Backend> out;
    if (SoftDirtyTracker::make() != nullptr) {
        out.push_back(
            {"softdirty", [](const vm::Reservation*) {
                 return std::unique_ptr<DirtyTracker>(
                     SoftDirtyTracker::make().release());
             }});
    }
    out.push_back({"mprotect", [](const vm::Reservation* heap) {
                       return std::unique_ptr<DirtyTracker>(
                           new MprotectTracker(heap));
                   }});
    return out;
}

class DirtyTrackerTest : public ::testing::TestWithParam<Backend>
{
  protected:
    DirtyTrackerTest() : heap(vm::Reservation::reserve(8 << 20))
    {
        heap.commit_must(heap.base(), heap.size());
        tracker = GetParam().make(&heap);
    }

    static bool
    contains_page(const std::vector<Range>& dirty, std::uintptr_t addr)
    {
        const std::uintptr_t page = align_down(addr, vm::kPageSize);
        for (const Range& r : dirty) {
            if (page >= r.base && page < r.end())
                return true;
        }
        return false;
    }

    vm::Reservation heap;
    std::unique_ptr<DirtyTracker> tracker;
};

TEST_P(DirtyTrackerTest, DetectsWriteDuringEpoch)
{
    tracker->begin({Range{heap.base(), heap.size()}});
    auto* p = reinterpret_cast<volatile char*>(heap.base() + 5 * 4096 + 17);
    *p = 1;
    std::vector<Range> dirty;
    tracker->end_collect(dirty);
    EXPECT_TRUE(contains_page(dirty, heap.base() + 5 * 4096));
}

TEST_P(DirtyTrackerTest, UntouchedPagesStayClean)
{
    // Touch everything before the epoch so pre-epoch dirtiness can't leak.
    std::memset(to_ptr(heap.base()), 1, heap.size());
    tracker->begin({Range{heap.base(), heap.size()}});
    auto* p = reinterpret_cast<volatile char*>(heap.base());
    *p = 2;
    std::vector<Range> dirty;
    tracker->end_collect(dirty);
    EXPECT_TRUE(contains_page(dirty, heap.base()));
    EXPECT_FALSE(contains_page(dirty, heap.base() + 4096))
        << "adjacent untouched page must be clean";
    EXPECT_FALSE(contains_page(dirty, heap.base() + (4 << 20)));
}

TEST_P(DirtyTrackerTest, ReadsDoNotDirty)
{
    std::memset(to_ptr(heap.base()), 1, heap.size());
    tracker->begin({Range{heap.base(), heap.size()}});
    volatile char sink = 0;
    for (std::size_t off = 0; off < heap.size(); off += 4096)
        sink += *reinterpret_cast<volatile char*>(heap.base() + off);
    std::vector<Range> dirty;
    tracker->end_collect(dirty);
    std::size_t dirty_bytes = 0;
    for (const Range& r : dirty)
        dirty_bytes += r.len;
    EXPECT_EQ(dirty_bytes, 0u) << "pure reads dirtied pages";
    (void)sink;
}

TEST_P(DirtyTrackerTest, SecondEpochStartsClean)
{
    tracker->begin({Range{heap.base(), heap.size()}});
    *reinterpret_cast<volatile char*>(heap.base() + 4096) = 1;
    std::vector<Range> dirty;
    tracker->end_collect(dirty);
    EXPECT_TRUE(contains_page(dirty, heap.base() + 4096));

    // New epoch: old write must not reappear.
    tracker->begin({Range{heap.base(), heap.size()}});
    std::vector<Range> dirty2;
    tracker->end_collect(dirty2);
    EXPECT_FALSE(contains_page(dirty2, heap.base() + 4096));
}

TEST_P(DirtyTrackerTest, MultipleWritesCoalesceToRuns)
{
    std::memset(to_ptr(heap.base()), 1, heap.size());
    tracker->begin({Range{heap.base(), heap.size()}});
    for (int p = 10; p < 14; ++p)
        *reinterpret_cast<volatile char*>(heap.base() + p * 4096) = 1;
    std::vector<Range> dirty;
    tracker->end_collect(dirty);
    // All four pages dirty, as one or more runs.
    for (int p = 10; p < 14; ++p)
        EXPECT_TRUE(contains_page(dirty, heap.base() + p * 4096)) << p;
}

TEST_P(DirtyTrackerTest, WritesOutsideTrackedRangesIgnored)
{
    std::memset(to_ptr(heap.base()), 1, heap.size());
    // Track only the first megabyte.
    tracker->begin({Range{heap.base(), 1 << 20}});
    *reinterpret_cast<volatile char*>(heap.base() + (2 << 20)) = 1;
    std::vector<Range> dirty;
    tracker->end_collect(dirty);
    EXPECT_FALSE(contains_page(dirty, heap.base() + (2 << 20)));
}

INSTANTIATE_TEST_SUITE_P(
    Backends, DirtyTrackerTest, ::testing::ValuesIn(available_backends()),
    [](const ::testing::TestParamInfo<Backend>& info) {
        return info.param.name;
    });

TEST(MakeDirtyTracker, ReturnsSomeBackend)
{
    vm::Reservation heap = vm::Reservation::reserve(1 << 20);
    auto tracker = make_dirty_tracker(&heap);
    ASSERT_NE(tracker, nullptr);
}

TEST(MprotectTrackerTest, NoteCommittedMarksDirty)
{
    vm::Reservation heap = vm::Reservation::reserve(1 << 20);
    heap.commit_must(heap.base(), heap.size());
    MprotectTracker tracker(&heap);
    tracker.begin({Range{heap.base(), 1 << 20}});
    tracker.note_committed(heap.base() + 64 * 1024, 4096);
    std::vector<Range> dirty;
    tracker.end_collect(dirty);
    bool found = false;
    for (const Range& r : dirty)
        found |= r.base <= heap.base() + 64 * 1024 &&
                 heap.base() + 64 * 1024 < r.end();
    EXPECT_TRUE(found);
}

// The sweeper opens and closes epochs while mutators report freshly
// committed pages through the commit hook. Registered under the tsan
// label: a thread-sanitizer build flags any unsynchronised access to the
// tracker's epoch state between the two sides.
TEST(MprotectTrackerRace, CommitHookRacesEpochBoundaries)
{
    vm::Reservation heap = vm::Reservation::reserve(1 << 20);
    heap.commit_must(heap.base(), heap.size());
    MprotectTracker tracker(&heap);
    std::atomic<bool> stop{false};
    std::thread committer([&] {
        while (!stop.load(std::memory_order_acquire))
            tracker.note_committed(heap.base() + 64 * 1024, 4096);
    });
    std::vector<Range> dirty;
    for (int i = 0; i < 2000; ++i) {
        tracker.begin({Range{heap.base(), 1 << 20}});
        dirty.clear();
        tracker.end_collect(dirty);
    }
    stop.store(true, std::memory_order_release);
    committer.join();
}

}  // namespace
}  // namespace msw::sweep
