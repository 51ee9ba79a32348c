/**
 * @file
 * Sharded fast-path statistics.
 *
 * The alloc/free fast path used to bump ~20 `std::atomic<uint64_t>`
 * members that shared the MineSweeper object's cache lines: every counter
 * update from every thread contended the same lines, which is exactly
 * where drop-in schemes lose their overhead budget (cf. FreeGuard's and
 * CAMP's per-thread state separation). StatCells stripes each logical
 * counter across a small set of cache-line-padded shards; a thread
 * increments only its home shard (one relaxed RMW on a line it usually
 * owns) and readers sum the shards. Sums are exact: every delta lands in
 * exactly one shard and 64-bit wraparound is associative, so gauges that
 * mix add() and sub() also aggregate to the true value.
 *
 * The layer is allocation-free (fixed inline storage) so it is safe on
 * the self-hosted LD_PRELOAD path, and a StatCells instance is shared by
 * the whole runtime-base hierarchy (MineSweeper, MarkUs, FFMalloc), which
 * is what makes the SweepStats/AllocatorStats surfaces uniform.
 */
#pragma once

#include <atomic>
#include <cstdint>

#include "metrics/stat_list.h"

namespace msw::core {

// The counter identities and their kinds come from MSW_STAT_LIST.
using metrics::kStatCount;
using metrics::Stat;

class StatCells
{
  public:
    StatCells() = default;

    StatCells(const StatCells&) = delete;
    StatCells& operator=(const StatCells&) = delete;

    /** Add @p delta to @p stat on the calling thread's home shard. */
    void
    add(Stat stat, std::uint64_t delta = 1)
    {
        cell(stat).fetch_add(delta, std::memory_order_relaxed);
    }

    /** Subtract @p delta (gauges); aggregates exactly via wraparound. */
    void
    sub(Stat stat, std::uint64_t delta)
    {
        cell(stat).fetch_sub(delta, std::memory_order_relaxed);
    }

    /** Sum of @p stat over all shards. */
    std::uint64_t read(Stat stat) const;

    /** Snapshot every counter (one pass over the shards). */
    void read_all(std::uint64_t (&out)[kStatCount]) const;

    /**
     * Zero every *event* counter across all shards. Gauges are
     * preserved: they describe heap state the fork child inherits, and
     * zeroing them would make the sub() half of a later add()/sub() pair
     * wrap. Only legal when no other thread is mutating — the atfork
     * child handler, where the process is single-threaded by
     * construction.
     */
    void reset_events();

    /** True for add()/sub() byte gauges, false for event counters. */
    static constexpr bool
    is_gauge(Stat stat)
    {
        return metrics::kStatKinds[static_cast<unsigned>(stat)] ==
               metrics::StatKind::kGauge;
    }

    /** Number of stripes (tests and benchmarks). */
    static constexpr unsigned
    shards()
    {
        return kShards;
    }

  private:
    // Few enough stripes to keep read() cheap, enough that a handful of
    // hot threads land on distinct lines. Must be a power of two.
    static constexpr unsigned kShards = 8;
    static constexpr unsigned kCacheLine = 64;

    struct alignas(kCacheLine) Shard {
        std::atomic<std::uint64_t> v[kStatCount];
    };

    /**
     * The calling thread's stripe, assigned round-robin on first use so
     * the common few-threads case spreads over distinct shards (a tid
     * hash would collide half the time at two threads).
     */
    static unsigned
    home_shard()
    {
        thread_local const unsigned shard = next_shard() & (kShards - 1);
        return shard;
    }

    static unsigned next_shard();

    std::atomic<std::uint64_t>&
    cell(Stat stat)
    {
        return shards_[home_shard()].v[static_cast<unsigned>(stat)];
    }

    Shard shards_[kShards] = {};
};

}  // namespace msw::core
