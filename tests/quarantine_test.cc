// Quarantine tests: buffering, epoch lock-in, failed-free carry-over,
// byte accounting across the entry life-cycle, and the entry-chunk pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "quarantine/quarantine.h"

namespace msw::quarantine {
namespace {

Entry
entry(std::uintptr_t base, std::size_t usable, bool unmapped = false)
{
    return Entry::make(base, usable, unmapped);
}

TEST(Quarantine, InsertAccumulatesPendingBytes)
{
    Quarantine q(8);
    q.insert(entry(0x1000, 100));
    q.insert(entry(0x2000, 200));
    EXPECT_EQ(q.pending_bytes(), 300u);
    EXPECT_EQ(q.stats().entries_added, 2u);
}

TEST(Quarantine, UnmappedEntriesCountSeparately)
{
    Quarantine q(8);
    q.insert(entry(0x1000, 100));
    q.insert(entry(0x2000, 4096, /*unmapped=*/true));
    EXPECT_EQ(q.pending_bytes(), 100u);
    EXPECT_EQ(q.unmapped_bytes(), 4096u);
}

TEST(Quarantine, LockInDrainsCurrentEpoch)
{
    Quarantine q(4);
    for (int i = 0; i < 10; ++i)
        q.insert(entry(0x1000 + i * 16, 16));
    std::vector<Entry> out;
    q.lock_in(out);
    EXPECT_EQ(out.size(), 10u);
    EXPECT_EQ(q.pending_bytes(), 0u);

    // A second lock-in with nothing new returns empty.
    q.lock_in(out);
    EXPECT_TRUE(out.empty());
}

TEST(Quarantine, EntriesAfterLockInGoToNextEpoch)
{
    Quarantine q(2);
    q.insert(entry(0x1000, 16));
    std::vector<Entry> first;
    q.lock_in(first);
    EXPECT_EQ(first.size(), 1u);

    q.insert(entry(0x2000, 32));
    EXPECT_EQ(q.pending_bytes(), 32u);
    std::vector<Entry> second;
    q.lock_in(second);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].real_base(), 0x2000u);
}

TEST(Quarantine, FailedFreesRejoinNextLockIn)
{
    Quarantine q(2);
    q.insert(entry(0x1000, 16));
    q.insert(entry(0x2000, 32));
    std::vector<Entry> set;
    q.lock_in(set);
    EXPECT_EQ(set.size(), 2u);

    // Pretend 0x2000 failed its sweep test.
    std::vector<Entry> failed = {entry(0x2000, 32)};
    q.store_failed(std::move(failed));
    EXPECT_EQ(q.failed_bytes(), 32u);
    EXPECT_EQ(q.pending_bytes(), 0u)
        << "failed frees are excluded from the trigger numerator";

    q.insert(entry(0x3000, 64));
    std::vector<Entry> next;
    q.lock_in(next);
    EXPECT_EQ(next.size(), 2u) << "failed entry must be retested";
    EXPECT_EQ(q.failed_bytes(), 0u);
    const bool has_failed =
        std::any_of(next.begin(), next.end(),
                    [](const Entry& e) { return e.real_base() == 0x2000; });
    EXPECT_TRUE(has_failed);
}

TEST(Quarantine, ByteAccountingSurvivesFullCycle)
{
    Quarantine q(4);
    q.insert(entry(0x1000, 100));
    q.insert(entry(0x2000, 200, true));
    q.insert(entry(0x3000, 300));
    EXPECT_EQ(q.pending_bytes(), 400u);
    EXPECT_EQ(q.unmapped_bytes(), 200u);

    std::vector<Entry> set;
    q.lock_in(set);
    EXPECT_EQ(q.pending_bytes(), 0u);
    EXPECT_EQ(q.unmapped_bytes(), 0u);

    // One mapped and the unmapped entry fail.
    std::vector<Entry> failed = {entry(0x1000, 100),
                                 entry(0x2000, 200, true)};
    q.store_failed(std::move(failed));
    EXPECT_EQ(q.failed_bytes(), 100u);
    EXPECT_EQ(q.unmapped_bytes(), 200u);
    EXPECT_EQ(q.pending_bytes(), 0u);
}

TEST(Quarantine, BufferSpillsAtCapacity)
{
    // With capacity 4, inserting 3 then locking in from *another* thread
    // misses the buffered entries; inserting 4 spills them globally.
    Quarantine q(4);
    for (int i = 0; i < 3; ++i)
        q.insert(entry(0x1000 + i * 16, 16));

    std::vector<Entry> seen_by_other;
    std::thread other([&] { q.lock_in(seen_by_other); });
    other.join();
    EXPECT_TRUE(seen_by_other.empty())
        << "entries below capacity stay in the owner's buffer";

    q.insert(entry(0x5000, 16));  // 4th insert: spill
    std::thread other2([&] { q.lock_in(seen_by_other); });
    other2.join();
    EXPECT_EQ(seen_by_other.size(), 4u);
}

TEST(Quarantine, OwnThreadLockInFlushesOwnBuffer)
{
    Quarantine q(64);
    q.insert(entry(0x1000, 16));
    std::vector<Entry> out;
    q.lock_in(out);  // same thread: must flush its own buffer first
    EXPECT_EQ(out.size(), 1u);
}

TEST(Quarantine, ThreadExitFlushesBuffer)
{
    Quarantine q(64);
    std::thread t([&] { q.insert(entry(0x7000, 16)); });
    t.join();
    std::vector<Entry> out;
    q.lock_in(out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].real_base(), 0x7000u);
}

TEST(Quarantine, ManyThreadsInsertConcurrently)
{
    Quarantine q(16);
    const int kThreads = 4;
    const int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i)
                q.insert(entry(0x10000 + (t * kPerThread + i) * 16, 16));
        });
    }
    for (auto& th : threads)
        th.join();
    std::vector<Entry> out;
    q.lock_in(out);
    EXPECT_EQ(out.size(),
              static_cast<std::size_t>(kThreads) * kPerThread);
    EXPECT_EQ(q.stats().entries_added,
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Quarantine, EntryKeepsFlagAndSizeInOneWord)
{
    const std::size_t big = std::size_t{1} << 40;
    const Entry e = entry(0x7f00'0000'1000, big, /*unmapped=*/true);
    EXPECT_EQ(e.real_base(), 0x7f00'0000'1000u);
    EXPECT_EQ(e.usable, big);
    EXPECT_TRUE(e.unmapped);
    const Entry f = entry(0x2000, 48);
    EXPECT_EQ(f.usable, 48u);
    EXPECT_FALSE(f.unmapped);
}

// Entries per chunk: EntryChunk::kEntries (private); the pool tests size
// their loads in whole chunks.
constexpr std::size_t kChunk = 1022;

void
insert_n(Quarantine& q, std::size_t n, std::uintptr_t base = 0x10000)
{
    for (std::size_t i = 0; i < n; ++i)
        q.insert(entry(base + i * 16, 16));
}

TEST(QuarantinePool, SteadyLoadMapsNoNewChunks)
{
    // Each cycle quarantines 3.5 chunks of fresh entries and carries a
    // constant 1500 failed frees, as a sweep at a steady load does.
    Quarantine q(64);
    std::vector<Entry> set;
    auto cycle = [&] {
        insert_n(q, 3 * kChunk + kChunk / 2);
        q.lock_in(set);
        std::vector<Entry> failed(set.begin(), set.begin() + 1500);
        q.store_failed(std::move(failed));
    };
    cycle();
    cycle();
    const std::uint64_t warm = q.stats().chunks_mapped;
    EXPECT_GT(warm, 0u);
    for (int i = 0; i < 20; ++i)
        cycle();
    EXPECT_EQ(q.stats().chunks_mapped, warm)
        << "a warm quarantine reuses its chunks instead of mapping new ones";
    q.lock_in(set);
    EXPECT_EQ(set.size(), 1500u) << "only the carried failed frees remain";
}

TEST(QuarantinePool, SparesNeverExceedTheLargerOfTheLastTwoLockIns)
{
    Quarantine q(64);
    std::vector<Entry> set;
    insert_n(q, 10 * kChunk);
    q.lock_in(set);
    ASSERT_EQ(set.size(), 10 * kChunk);
    EXPECT_EQ(q.stats().chunks_mapped, 10u);

    // A one-chunk epoch reuses a spare; the ten-chunk lock-in before it
    // still caps the spares, so all ten stay pooled.
    insert_n(q, kChunk);
    q.lock_in(set);
    ASSERT_EQ(set.size(), kChunk);
    EXPECT_EQ(q.stats().chunks_mapped, 10u);

    // A second one-chunk epoch: the last two lock-ins took one chunk
    // each, so the spares shrink to one and the other nine are unmapped.
    insert_n(q, kChunk);
    q.lock_in(set);
    ASSERT_EQ(set.size(), kChunk);

    // Ten chunks' worth again: one comes from the spares, nine are new.
    insert_n(q, 10 * kChunk);
    EXPECT_EQ(q.stats().chunks_mapped, 19u)
        << "the spare list held more chunks than the last two lock-ins "
           "took";
    q.lock_in(set);
    EXPECT_EQ(set.size(), 10 * kChunk);
}

TEST(QuarantinePool, AlternatingEpochsMapNoChunks)
{
    // Sweeps that alternate a small and a large epoch, as a server's
    // bursty load does: the large epoch's chunks survive the small
    // epoch's lock-in, so a warm quarantine maps nothing.
    Quarantine q(64);
    std::vector<Entry> set;
    auto two_epochs = [&] {
        insert_n(q, kChunk / 2);
        q.lock_in(set);
        insert_n(q, 6 * kChunk);
        q.lock_in(set);
    };
    two_epochs();
    const std::uint64_t warm = q.stats().chunks_mapped;
    EXPECT_EQ(warm, 6u);
    for (int i = 0; i < 10; ++i)
        two_epochs();
    EXPECT_EQ(q.stats().chunks_mapped, warm)
        << "a small epoch's lock-in unmapped the large epoch's chunks";
}

TEST(QuarantinePool, StoreFailedDrawsFromSpares)
{
    Quarantine q(64);
    std::vector<Entry> set;
    insert_n(q, 3 * kChunk);
    q.lock_in(set);
    ASSERT_EQ(q.stats().chunks_mapped, 3u);

    std::vector<Entry> failed(set.begin(), set.begin() + kChunk + 1);
    q.store_failed(std::move(failed));
    EXPECT_EQ(q.stats().chunks_mapped, 3u)
        << "two failed chunks come from the three spares";
    EXPECT_EQ(q.failed_bytes(), (kChunk + 1) * 16);

    std::vector<Entry> again;
    q.lock_in(again);
    ASSERT_EQ(again.size(), kChunk + 1);
    for (std::size_t i = 0; i < again.size(); ++i)
        EXPECT_EQ(again[i].real_base(), set[i].real_base());
}

TEST(QuarantinePool, LockInReusesTheCallersVector)
{
    Quarantine q(64);
    std::vector<Entry> set;
    insert_n(q, 2000);
    q.lock_in(set);
    ASSERT_EQ(set.size(), 2000u);
    EXPECT_EQ(set.capacity(), 2000u) << "lock_in reserves the exact count";
    const Entry* storage = set.data();
    insert_n(q, 1500);
    q.lock_in(set);
    EXPECT_EQ(set.size(), 1500u);
    EXPECT_EQ(set.data(), storage)
        << "a smaller sweep set reuses the vector's storage";
}

}  // namespace
}  // namespace msw::quarantine
