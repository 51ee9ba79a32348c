/**
 * @file
 * Fast-path statistics contention benchmark.
 *
 * Motivates the StatCells layer: the alloc/free fast path increments
 * bookkeeping counters on every call, and with one shared cache line a
 * malloc-heavy multi-threaded program serialises on counter traffic that
 * has nothing to do with allocation itself. Three measurements:
 *
 *   1. counter layers head-to-head — threads hammering a single shared
 *      std::atomic (the pre-refactor design) vs StatCells' striped
 *      cache-line-padded shards;
 *   2. end-to-end MineSweeper alloc/free throughput across thread counts
 *      (counter cost embedded in the real fast path);
 *   3. aggregation-read cost, since striping moves work to read().
 *
 * Emits BENCH_fastpath.json alongside the human-readable table so CI can
 * track the numbers.
 */
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/minesweeper.h"
#include "core/stat_cells.h"
#include "metrics/metrics.h"
#include "util/clock.h"

namespace {

using msw::core::MineSweeper;
using msw::core::Stat;
using msw::core::StatCells;
using msw::util::monotonic_ns;

constexpr std::uint64_t kOpsPerThread = 2'000'000;

double
mops(std::uint64_t total_ops, std::uint64_t ns)
{
    return ns == 0 ? 0.0
                   : static_cast<double>(total_ops) * 1000.0 /
                         static_cast<double>(ns);
}

template <typename Body>
std::uint64_t
run_threads(unsigned nthreads, Body&& body)
{
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < nthreads; ++t) {
        threads.emplace_back([&go, &body, t] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            body(t);
        });
    }
    const std::uint64_t t0 = monotonic_ns();
    go.store(true, std::memory_order_release);
    for (auto& t : threads)
        t.join();
    return monotonic_ns() - t0;
}

double
bench_shared_atomic(unsigned nthreads)
{
    alignas(64) static std::atomic<std::uint64_t> counter{0};
    counter.store(0);
    const std::uint64_t ns = run_threads(nthreads, [](unsigned) {
        for (std::uint64_t i = 0; i < kOpsPerThread; ++i)
            counter.fetch_add(1, std::memory_order_relaxed);
    });
    return mops(kOpsPerThread * nthreads, ns);
}

double
bench_stat_cells(unsigned nthreads)
{
    static StatCells cells;
    const std::uint64_t ns = run_threads(nthreads, [](unsigned) {
        for (std::uint64_t i = 0; i < kOpsPerThread; ++i)
            cells.add(Stat::kAllocCalls);
    });
    return mops(kOpsPerThread * nthreads, ns);
}

double
bench_minesweeper_allocfree(MineSweeper* msw, unsigned nthreads)
{
    constexpr std::uint64_t kAllocOps = 200'000;
    const std::uint64_t ns = run_threads(nthreads, [msw](unsigned t) {
        // Mixed small sizes, immediately freed: the quarantine absorbs
        // them, so this stresses the alloc/free fast path including its
        // counter traffic, not the sweep.
        const std::size_t sizes[4] = {16, 48, 96, 256};
        for (std::uint64_t i = 0; i < kAllocOps; ++i) {
            void* p = msw->alloc(sizes[(i + t) & 3]);
            if (p != nullptr)
                msw->free(p);
        }
    });
    return mops(kAllocOps * nthreads, ns);
}

double
bench_read_cost()
{
    StatCells cells;
    cells.add(Stat::kAllocCalls, 7);
    constexpr std::uint64_t kReads = 2'000'000;
    std::uint64_t sink = 0;
    const std::uint64_t t0 = monotonic_ns();
    for (std::uint64_t i = 0; i < kReads; ++i)
        sink += cells.read(Stat::kAllocCalls);
    const std::uint64_t ns = monotonic_ns() - t0;
    if (sink == 0)
        std::fprintf(stderr, "unreachable\n");
    return mops(kReads, ns);
}

}  // namespace

int
main()
{
    const unsigned hw = std::thread::hardware_concurrency();
    std::vector<unsigned> thread_counts = {1, 2, 4};
    if (hw > 4)
        thread_counts.push_back(hw > 16 ? 16 : hw);

    std::printf("fastpath contention (Mops/s, higher is better)\n");
    msw::metrics::Table table(
        {"threads", "shared-atomic", "stat-cells", "speedup",
         "msw-allocfree"});

    FILE* json = std::fopen("BENCH_fastpath.json", "w");
    if (json != nullptr) {
        std::fprintf(json, "{\n");
        msw::bench::json_stamp(json);
        std::fprintf(json, "  \"read_mops\": %.2f,\n  \"rows\": [\n",
                     bench_read_cost());
    }

    bool first = true;
    for (unsigned n : thread_counts) {
        const double shared = bench_shared_atomic(n);
        const double striped = bench_stat_cells(n);
        // Fresh instance per thread count so quarantine state from one
        // row cannot slow the next.
        MineSweeper msw;
        const double e2e = bench_minesweeper_allocfree(&msw, n);
        char shared_s[32], striped_s[32], speedup_s[32], e2e_s[32];
        std::snprintf(shared_s, sizeof shared_s, "%.1f", shared);
        std::snprintf(striped_s, sizeof striped_s, "%.1f", striped);
        std::snprintf(speedup_s, sizeof speedup_s, "%.2fx",
                      striped / shared);
        std::snprintf(e2e_s, sizeof e2e_s, "%.2f", e2e);
        table.add_row({std::to_string(n), shared_s, striped_s, speedup_s,
                       e2e_s});
        if (json != nullptr) {
            std::fprintf(json,
                         "    %s{\"threads\": %u, \"shared_atomic_mops\": "
                         "%.2f, \"stat_cells_mops\": %.2f, "
                         "\"msw_allocfree_mops\": %.2f}",
                         first ? "" : ",\n    ", n, shared, striped, e2e);
            first = false;
        }
    }
    table.print();

    if (json != nullptr) {
        std::fprintf(json, "\n  ]\n}\n");
        std::fclose(json);
        std::printf("\nwrote BENCH_fastpath.json\n");
    }
    return 0;
}
