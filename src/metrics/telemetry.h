/**
 * @file
 * Process-wide telemetry registry: the runtime's observability switchboard
 * (DESIGN.md §14).
 *
 * One static instance aggregates the latency histograms (malloc/free
 * fast-path, sweep pauses), the binary trace ring, and the export
 * surface:
 *
 *  - `MSW_TELEMETRY=1` (or any truthy value) enables the master layer:
 *    pause histograms and trace events. `MSW_TELEMETRY=ops`
 *    additionally samples per-call malloc/free latency — that costs
 *    two clock_gettime reads per operation, so it is a separate gate
 *    that benchmarks leave off.
 *  - `MSW_STATS_DUMP=<path>` implies the master layer and writes a
 *    JSON snapshot at shim teardown (telemetry_write_json).
 *  - SIGUSR2 (telemetry_install_sigusr2) dumps a text snapshot to
 *    stderr through util/sigsafe_io — the handler path touches only
 *    relaxed atomic loads, stack buffers and write(2).
 *
 * With telemetry off, the only cost on the alloc/free fast path is one
 * relaxed load and a predicted-not-taken branch (the acceptance gate:
 * no measurable regression on bench/fastpath_contention).
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "metrics/histogram.h"
#include "metrics/stat_list.h"
#include "metrics/trace_ring.h"

namespace msw::metrics {

/** One named counter exported through the dump surfaces. */
struct TelemetryCounter {
    const char* name;
    std::uint64_t value;
};

/**
 * Provider filling @p out (capacity @p cap) with runtime counters; the
 * shim registers one exporting its runtime's counters(). Must be
 * async-signal-safe: the SIGUSR2 handler calls it.
 */
using TelemetryCounterFn = std::size_t (*)(TelemetryCounter* out,
                                           std::size_t cap);

/** Most counters one dump exports: `sweeps` and every MSW_STAT_LIST row. */
inline constexpr std::size_t kMaxCounters = kStatCount + 1;

/**
 * Fill @p out with `sweeps` and then every MSW_STAT_LIST row of @p s
 * under its export name; returns how many were written (at most @p
 * cap). Async-signal-safe.
 */
std::size_t export_counters(const StatSnapshot& s, TelemetryCounter* out,
                            std::size_t cap);

class Telemetry
{
  public:
    constexpr Telemetry() = default;

    Telemetry(const Telemetry&) = delete;
    Telemetry& operator=(const Telemetry&) = delete;

    /** Master gate: pause/sweep histograms + trace ring. */
    bool
    on() const
    {
        // msw-relaxed(config-flag): advisory process-wide toggle; a
        // late-observed flip only drops or adds one sample.
        return enabled.load(std::memory_order_relaxed);
    }

    /** Op-latency gate (separate: costs two clock reads per op). */
    bool
    ops_on() const
    {
        // msw-relaxed(config-flag): advisory toggle, as on() above.
        return sample_ops.load(std::memory_order_relaxed);
    }

    /** Push a trace event iff the master gate is on. */
    void
    trace_event(TraceEvent event, std::uint64_t a0 = 0,
                std::uint64_t a1 = 0)
    {
        if (on())
            trace.push(event, a0, a1);
    }

    std::atomic<bool> enabled{false};
    std::atomic<bool> sample_ops{false};

    Histogram alloc_ns;  ///< malloc/alloc_aligned fast-path latency.
    Histogram free_ns;   ///< free fast-path latency.
    Histogram pause_ns;  ///< Backpressure allocation pauses.
    TraceRing trace;

    std::atomic<TelemetryCounterFn> counter_fn{nullptr};
};

/** The process-wide instance (static storage; allocation-free). */
Telemetry& telemetry();

/**
 * Read MSW_TELEMETRY / MSW_STATS_DUMP and arm the gates accordingly.
 * Returns true when the master layer ended up enabled. Stores the dump
 * path into a fixed internal buffer (telemetry_stats_dump_path).
 */
bool telemetry_init_from_env();

/** MSW_STATS_DUMP path captured by telemetry_init_from_env (or null). */
const char* telemetry_stats_dump_path();

/**
 * Write the JSON snapshot (histograms, counters, trace tail) to @p
 * path. Normal-context only (uses stdio). Returns false on I/O error.
 */
bool telemetry_write_json(const char* path);

/**
 * Async-signal-safe text dump to @p fd: histogram digests, counters
 * and the newest trace events, formatted via util/sigsafe_io only.
 */
void telemetry_dump_sigsafe(int fd);

/** Install the SIGUSR2 dump-to-stderr handler (idempotent). */
void telemetry_install_sigusr2();

}  // namespace msw::metrics
