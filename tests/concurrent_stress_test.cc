// Concurrent malloc/free-vs-sweep stress: mutator threads hammer the
// allocator with mixed lifetimes while their quarantine flushes race the
// background sweeper and its helpers. Exists primarily for the tsan ctest
// label (MSW_SANITIZE=thread) and the debug lock-rank build, where it
// drives every lock nesting in the stack: tcache -> bin -> extent,
// quarantine registry -> epoch lists, sweep control -> roots -> workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "core/minesweeper.h"
#include "quarantine/quarantine.h"
#include "util/rng.h"

namespace msw {
namespace {

core::Options
stress_options()
{
    core::Options opts;
    opts.mode = core::Mode::kFullyConcurrent;
    // Sweep eagerly so the background sweeper runs many passes during the
    // test instead of one at the end.
    opts.min_sweep_bytes = 64 * 1024;
    opts.sweep_threshold = 0.05;
    opts.helper_threads = 2;
    opts.tl_buffer_entries = 16;  // frequent flushes into the epoch lists
    return opts;
}

void
mutator(core::MineSweeper* msw, unsigned seed, std::atomic<bool>* stop,
        std::atomic<std::uint64_t>* allocs)
{
    msw->register_mutator_thread();
    Rng rng(seed);

    // Mixed lifetimes: a slot table of surviving objects plus a stream of
    // short-lived ones, sizes spanning small classes and large spans.
    // Iterations are bounded so the test terminates deterministically
    // even under TSan's slowdown; `stop` only ends it early.
    constexpr int kSlots = 256;
    constexpr int kMaxIters = 50'000;
    struct Slot {
        void* p = nullptr;
        std::size_t n = 0;
    };
    std::vector<Slot> slots(kSlots);

    for (int iter = 0;
         iter < kMaxIters && !stop->load(std::memory_order_relaxed);
         ++iter) {
        const int i = static_cast<int>(rng.next_u64() % kSlots);
        Slot& s = slots[i];
        if (s.p != nullptr) {
            // Touch the object first: surviving objects must never have
            // been recycled out from under us.
            ASSERT_EQ(std::memcmp(s.p, &s.n, sizeof(s.n)), 0)
                << "live object clobbered";
            msw->free(s.p);
            s.p = nullptr;
            continue;
        }
        std::size_t size = 16u << (rng.next_u64() % 8);  // 16 B .. 2 KiB
        if (rng.next_u64() % 64 == 0)
            size = 64 * 1024;  // occasional large allocation
        void* p = msw->alloc(size);
        ASSERT_NE(p, nullptr);
        s.n = size;
        std::memcpy(p, &s.n, sizeof(s.n));
        s.p = p;
        allocs->fetch_add(1, std::memory_order_relaxed);
    }

    for (Slot& s : slots) {
        if (s.p != nullptr)
            msw->free(s.p);
    }
    msw->unregister_mutator_thread();
}

TEST(ConcurrentStress, MutatorsRaceQuarantineFlushesAndSweeps)
{
    core::MineSweeper msw(stress_options());
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> allocs{0};

    constexpr int kMutators = 4;
    std::vector<std::thread> threads;
    threads.reserve(kMutators);
    for (int t = 0; t < kMutators; ++t) {
        threads.emplace_back(mutator, &msw, 0x5eed + t, &stop, &allocs);
    }

    // Interleave control-path calls with the mutators: force_sweep and
    // flush take the sweep control mutex and wait on the sweeper, racing
    // the threshold-triggered background sweeps.
    for (int round = 0; round < 5; ++round) {
        msw.force_sweep();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    msw.flush();

    stop.store(true, std::memory_order_relaxed);
    for (auto& th : threads)
        th.join();
    msw.flush();

    const core::SweepStats stats = msw.sweep_stats();
    EXPECT_GE(stats.sweeps, 5u);
    EXPECT_GT(allocs.load(), 0u);
    EXPECT_GT(stats.entries_released, 0u);
}

TEST(ConcurrentStress, ForceSweepStormFromManyThreads)
{
    core::Options opts = stress_options();
    core::MineSweeper msw(opts);
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> allocs{0};

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back(mutator, &msw, 0xfeed + t, &stop, &allocs);
    }
    // Competing control threads: concurrent force_sweep/flush exercise the
    // single-sweeper CAS and the done-CV broadcast paths.
    std::vector<std::thread> controllers;
    for (int t = 0; t < 2; ++t) {
        controllers.emplace_back([&msw] {
            for (int i = 0; i < 3; ++i) {
                msw.force_sweep();
                msw.flush();
            }
        });
    }
    for (auto& th : controllers)
        th.join();
    stop.store(true, std::memory_order_relaxed);
    for (auto& th : threads)
        th.join();

    EXPECT_GE(msw.sweep_stats().sweeps, 3u);
}

// DESIGN.md §13 cross-reference: the dynamic half of the
// `sweeper-token` and `epoch-handoff` protocol rows. Thread churn
// (register / flush / unregister) hands quarantine shard ownership
// back and forth while sweeps flip the reclaimer's scan epoch, and a
// monitor thread leans on the relaxed `sweeps_done_` read the static
// checker sanctions — TSan (ctest -L tsan) is the judge that those
// relaxed annotations describe real protocols, not wishes.
TEST(ConcurrentStress, SweeperTokenEpochHandoffInterleave)
{
    core::MineSweeper msw(stress_options());
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> allocs{0};

    // Churners: short register->work->flush->unregister lives, so shard
    // ownership (epoch-handoff) changes hands mid-sweep instead of once
    // at thread exit.
    std::vector<std::thread> churners;
    for (int t = 0; t < 3; ++t) {
        churners.emplace_back([&msw, &stop, &allocs, t] {
            Rng rng(0xc0ffee + static_cast<unsigned>(t));
            while (!stop.load(std::memory_order_relaxed)) {
                msw.register_mutator_thread();
                for (int i = 0; i < 64; ++i) {
                    const std::size_t size = 16u << (rng.next_u64() % 6);
                    void* p = msw.alloc(size);
                    ASSERT_NE(p, nullptr);
                    std::memset(p, 0xa5, size);
                    msw.free(p);
                    allocs.fetch_add(1, std::memory_order_relaxed);
                }
                msw.flush();
                msw.unregister_mutator_thread();
            }
        });
    }

    // Monitor: the sweep epoch (relaxed sweeps_done_ read, protocol
    // sweeper-token) must be monotonic from any thread, sweep or no
    // sweep in flight.
    std::thread monitor([&msw, &stop] {
        std::uint64_t last = msw.sweep_epoch();
        while (!stop.load(std::memory_order_relaxed)) {
            const std::uint64_t now = msw.sweep_epoch();
            ASSERT_GE(now, last) << "sweep epoch went backwards";
            last = now;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });

    // Driver: force sweeps so the single-sweeper token and the scan
    // epoch flip while ownership churns underneath.
    for (int round = 0; round < 8; ++round) {
        msw.force_sweep();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    stop.store(true, std::memory_order_relaxed);
    for (auto& th : churners)
        th.join();
    monitor.join();
    msw.flush();

    EXPECT_GE(msw.sweep_stats().sweeps, 8u);
    EXPECT_GT(allocs.load(), 0u);
}

// The quarantine's chunk pool under contention: inserters spill their
// buffers into the current epoch (drawing spare chunks under the epoch
// lock) while a sweeper-like thread locks in, pools the emptied chunks
// and stores a share back as failed frees. Every entry must come out
// released exactly once; a chunk handed to two lists, or recycled while
// still linked, would lose or duplicate entries.
TEST(ConcurrentStress, QuarantinePoolYieldsEachEntryOnce)
{
    using quarantine::Entry;
    constexpr unsigned kInserters = 4;
    constexpr std::size_t kPerThread = 20000;
    constexpr std::size_t kTotal = kInserters * kPerThread;
    quarantine::Quarantine q(16);
    std::atomic<unsigned> running{kInserters};

    std::vector<std::thread> inserters;
    for (unsigned t = 0; t < kInserters; ++t) {
        inserters.emplace_back([&q, &running, t] {
            for (std::size_t i = 0; i < kPerThread; ++i) {
                const std::size_t id = t * kPerThread + i;
                q.insert(Entry::make(0x10000 + id * 16, 16, false));
            }
            q.flush_thread_buffer();
            running.fetch_sub(1);
        });
    }

    // Sweeper: an entry seen for the first time with id % 3 == 0 fails
    // its sweep and goes back; every other sighting releases it.
    std::vector<std::uint8_t> seen(kTotal, 0);
    std::vector<std::uint8_t> released(kTotal, 0);
    std::size_t nreleased = 0;
    std::size_t duplicates = 0;
    std::vector<Entry> set;
    std::thread sweeper([&] {
        for (;;) {
            // Read before lock_in: once every inserter has flushed, an
            // idle pass proves nothing is left anywhere.
            const bool done = running.load() == 0;
            q.lock_in(set);
            std::vector<Entry> failed;
            for (const Entry& e : set) {
                const std::size_t id = (e.real_base() - 0x10000) / 16;
                if (seen[id]++ == 0 && id % 3 == 0) {
                    failed.push_back(e);
                    continue;
                }
                if (released[id]++ != 0)
                    ++duplicates;
                ++nreleased;
            }
            const bool idle = set.empty() && failed.empty();
            q.store_failed(std::move(failed));
            if (done && idle)
                break;
        }
    });
    for (auto& th : inserters)
        th.join();
    sweeper.join();

    EXPECT_EQ(duplicates, 0u);
    EXPECT_EQ(nreleased, kTotal);
    EXPECT_EQ(std::count(released.begin(), released.end(), 1),
              static_cast<std::ptrdiff_t>(kTotal));
    EXPECT_EQ(q.pending_bytes(), 0u);
    EXPECT_EQ(q.failed_bytes(), 0u);
}

}  // namespace
}  // namespace msw
