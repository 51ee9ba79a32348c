/**
 * @file
 * The runtime counter list: one X-macro row per counter, and everything
 * that enumerates counters generated from it.
 *
 * Every surface that reports counters — the sharded StatCells block, the
 * SweepStats struct, the System snapshot the workload runner reads, the
 * RunRecord shipped through the fork pipe, the MSW_STATS_DUMP/SIGUSR2
 * export and every row of BENCH_paper_figs.json — walks this table
 * rather than naming counters itself, so adding a counter is one row
 * here plus its increment site.
 *
 * Dependency-free on purpose: msw_core reports through it and msw_metrics
 * (which does not link msw_core) records and exports it.
 */
#pragma once

#include <cstdint>

/**
 * X(enumerator, name, kind): the Stat enumerator, the SweepStats field and
 * export name, and whether the counter is an event (only grows; zeroed in
 * a fork child) or a gauge (add()/sub() pairs describing heap state).
 */
#define MSW_STAT_LIST(X)                                                  \
    /* Allocation surface (all runtimes). */                             \
    X(kAllocCalls, alloc_calls, kEvent)                                  \
    X(kFreeCalls, free_calls, kEvent)                                    \
    X(kDoubleFrees, double_frees, kEvent) /* absorbed, paper §3 */       \
    /* Sweep/mark outcomes (MineSweeper, MarkUs). */                     \
    X(kEntriesReleased, entries_released, kEvent)                        \
    X(kBytesReleased, bytes_released, kEvent)                            \
    X(kFailedFrees, failed_frees, kEvent) /* entry-test failures */      \
    X(kBytesScanned, bytes_scanned, kEvent) /* marking traffic */        \
    X(kSweepCpuNs, sweep_cpu_ns, kEvent) /* sweeper + helper CPU */      \
    X(kStwNs, stw_ns, kEvent) /* stop-the-world time */                  \
    X(kPauseNs, pause_ns, kEvent) /* allocation-pausing waits */         \
    X(kUnmappedEntries, unmapped_entries, kEvent) /* large, unmapped */  \
    /* Sweep-phase breakdown (subsets of sweep_cpu_ns). */               \
    X(kPhaseDirtyScanNs, phase_dirty_scan_ns, kEvent) /* roots, lock-in */ \
    X(kPhaseMarkNs, phase_mark_ns, kEvent) /* heap + root marking */     \
    X(kPhaseDrainNs, phase_drain_ns, kEvent) /* deferred-free drain */   \
    X(kPhaseReleaseNs, phase_release_ns, kEvent) /* test + release */    \
    /* Resilience (memory-pressure degradation + watchdog). */           \
    X(kEmergencySweeps, emergency_sweeps, kEvent) /* from alloc() */     \
    X(kCommitRetries, commit_retries, kEvent) /* alloc() retries */      \
    X(kWatchdogFallbacks, watchdog_fallbacks, kEvent) /* sync sweeps */  \
    X(kOomReturns, oom_returns, kEvent) /* alloc() nullptr returns */    \
    /* Hardened allocation policy (zero under the default policy). */    \
    X(kCanaryChecks, canary_checks, kEvent) /* free()-time tests */      \
    X(kCanaryViolations, canary_violations, kEvent) /* tampering seen */ \
    X(kSweepFillChecks, sweep_fill_checks, kEvent) /* release audits */  \
    X(kReleaseShuffles, release_shuffles, kEvent) /* shuffled batches */ \
    /* Purge integration (MineSweeper, MarkUs): pages through the extent \
       hooks, i.e. mprotect(RW) commits and post-sweep or emergency     \
       decommits (§4.5). */                                              \
    X(kPagesCommitted, pages_committed, kEvent)                          \
    X(kPagesPurged, pages_purged, kEvent)                                \
    /* Byte gauges (FFMalloc): exact under summation. */                 \
    X(kLiveBytes, live_bytes, kGauge)                                    \
    X(kCommittedBytes, committed_bytes, kGauge)

namespace msw::metrics {

enum class StatKind { kEvent, kGauge };

/**
 * Logical counter identities for the whole runtime family. One shared
 * namespace keeps the aggregation surface uniform; a runtime simply never
 * touches the slots it has no use for (an unused slot costs 8 bytes per
 * StatCells shard, nothing on any fast path).
 */
enum class Stat : unsigned {
#define MSW_STAT_ENUMERATOR(id, name, kind) id,
    MSW_STAT_LIST(MSW_STAT_ENUMERATOR)
#undef MSW_STAT_ENUMERATOR
    kCount,
};

inline constexpr unsigned kStatCount = static_cast<unsigned>(Stat::kCount);

/** Export names, indexed by Stat. */
inline constexpr const char* kStatNames[kStatCount] = {
#define MSW_STAT_NAME(id, name, kind) #name,
    MSW_STAT_LIST(MSW_STAT_NAME)
#undef MSW_STAT_NAME
};

inline constexpr StatKind kStatKinds[kStatCount] = {
#define MSW_STAT_KIND(id, name, kind) StatKind::kind,
    MSW_STAT_LIST(MSW_STAT_KIND)
#undef MSW_STAT_KIND
};

/**
 * Every counter of one runtime at one instant, plus its completed
 * sweep (or marking-pass) count. Trivially copyable, so it travels
 * through the fork pipe verbatim.
 */
struct StatSnapshot {
    std::uint64_t sweeps = 0;
    std::uint64_t values[kStatCount] = {};

    std::uint64_t
    operator[](Stat stat) const
    {
        return values[static_cast<unsigned>(stat)];
    }
};

}  // namespace msw::metrics
