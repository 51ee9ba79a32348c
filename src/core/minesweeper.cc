#include "core/minesweeper.h"

#include "core/lifecycle.h"
#include "metrics/telemetry.h"
#include "sweep/residency.h"
#include "util/clock.h"

namespace msw::core {

using sweep::Range;

QuarantineRuntime::Config
MineSweeper::make_config(const Options& opts)
{
    Config c;
    c.jade = opts.jade;
    c.tl_buffer_entries = opts.tl_buffer_entries;
    c.reclaim.unmapping = opts.unmapping;
    c.reclaim.zeroing = opts.zeroing;
    c.reclaim.max_pending_unmaps = opts.max_pending_unmaps;
    c.control.background = opts.mode != Mode::kSynchronous;
    c.control.watchdog_timeout_ms = opts.watchdog_timeout_ms;
    c.make_tracker = opts.mode == Mode::kMostlyConcurrent;
    c.sweep_threshold = opts.sweep_threshold;
    c.min_sweep_bytes = opts.min_sweep_bytes;
    // Sweep once unmapped quarantine reaches nine times the committed
    // footprint (§4.2).
    c.unmapped_factor = 9.0;
    c.pause_factor = opts.pause_factor;
    c.alloc_retry_attempts = opts.alloc_retry_attempts;
    c.alloc_retry_backoff_us = opts.alloc_retry_backoff_us;
    c.quarantine_enabled = opts.quarantine_enabled;
    c.sweep_enabled = opts.sweep_enabled;
    c.keep_failed = opts.keep_failed;
    c.purging = opts.purging;
    return c;
}

// msw-analyze: slow-path(one-time engine construction under the shim's
// g_state init latch; never runs on the steady-state alloc/free path)
MineSweeper::MineSweeper(const Options& opts)
    : QuarantineRuntime(make_config(opts), [this] { run_sweep(); }),
      marker_(&mark_bits_, jade_.reservation().base(),
              jade_.reservation().end())
{
    if (opts.helper_threads > 0)
        workers_ = std::make_unique<sweep::SweepWorkers>(
            opts.helper_threads);

    controller_.start();

    // Last: every member is live, so the instance can safely serve
    // atfork callbacks from here on. First registered instance wins.
    lifecycle::register_runtime(this);
}

MineSweeper::~MineSweeper()
{
    // First: stop serving atfork callbacks before any member dies.
    lifecycle::unregister_runtime(this);
    // Before our members die: the sweep function touches marker_ and
    // workers_, which are gone by the time the base destructor runs.
    controller_.shutdown();
    workers_.reset();
}

// ---------------------------------------------------------------- sweeps

std::vector<Range>
MineSweeper::scan_ranges() const
{
    // Every candidate range — committed heap runs, roots, stacks — is
    // narrowed to its present-or-swapped pages in one pagemap pass:
    // untouched pages read as zero and cannot hold pointers.
    std::vector<Range> candidates = access_map_.committed_runs();
    for (const Range& r : roots_.roots())
        candidates.push_back(r);
    for (const Range& r : roots_.stacks())
        candidates.push_back(r);
    // Copy the provider under its lock: the shim may swap it while this
    // sweep is already running.
    std::function<std::vector<Range>()> provider;
    {
        LockGuard g(extra_roots_lock_);
        provider = extra_roots_provider_;
    }
    if (provider) {
        const std::vector<Range> internal = internal_regions();
        for (const Range& r : provider()) {
            bool overlaps_internal = false;
            for (const Range& i : internal) {
                if (r.base < i.end() && i.base < r.end()) {
                    overlaps_internal = true;
                    break;
                }
            }
            if (!overlaps_internal)
                candidates.push_back(r);
        }
    }
    std::vector<Range> ranges;
    sweep::append_resident_subranges(candidates, &ranges);
    return ranges;
}

// msw-analyze: slow-path(configuration API: called once at engine
// construction and from tests, never on the alloc/free path)
void
MineSweeper::set_extra_roots_provider(
    std::function<std::vector<sweep::Range>()> provider)
{
    LockGuard g(extra_roots_lock_);
    extra_roots_provider_ = std::move(provider);
}

void
MineSweeper::run_sweep()
{
    if (!open_sweep())
        return;
    const std::uint64_t helpers0 =
        workers_ != nullptr ? workers_->helper_cpu_ns() : 0;

    if (config_.sweep_enabled) {
        arm_tracker();
        // Phase 1b (mark): concurrent linear mark of all scannable
        // memory, plus the STW recheck when tracking.
        const std::uint64_t mark_t0 = util::monotonic_ns();
        std::uint64_t scanned =
            marker_.mark_ranges(scan_ranges(), workers_.get()).bytes_scanned;
        if (tracker_ != nullptr) {
            // Phase 2 (mostly-concurrent only): brief stop-the-world
            // recheck of pages modified during phase 1 (§4.3).
            stw_recheck([&](const std::vector<Range>& rescan) {
                scanned +=
                    marker_.mark_ranges(rescan, workers_.get()).bytes_scanned;
            });
        }
        stats_.add(Stat::kBytesScanned, scanned);
        // The mark phase spans both passes (the STW window included:
        // its recheck is marking work; kStwNs isolates the stop itself).
        record_phase(Stat::kPhaseMarkNs, metrics::TraceEvent::kPhaseMark,
                     util::monotonic_ns() - mark_t0, scanned);
    }

    // Phase 3: drain, release and close on this thread; the helpers
    // (§4.4) mark only.
    const std::uint64_t helpers1 =
        workers_ != nullptr ? workers_->helper_cpu_ns() : 0;
    finish_sweep(helpers1 - helpers0);
}

// ----------------------------------------------------- process lifecycle

// The acquire/release pairings below straddle fork(), outside what the
// static analysis can see; ordering is enforced at runtime by the
// lock-rank validator instead (lock_rank_fork_begin tolerates the bulk
// same-rank runs, inversions still panic).

void
MineSweeper::prepare_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    controller_.prepare_fork();  // kCoreControl (10); quiesces the sweep
    roots_.prepare_fork();       // kCoreRoots   (12)
    if (workers_ != nullptr)
        workers_->prepare_fork();  // kCoreWorkers (14); drains helpers
    reclaimer_.prepare_fork();     // kCoreUnmap   (16)
    extra_roots_lock_.lock();      // kCoreConfig  (18)
    quarantine_.prepare_fork();    // kQuarantineRegistry (20) -> (22)
    jade_.prepare_fork();          // kBinRegistry (30) -> ... -> (42)
}

void
MineSweeper::parent_after_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    jade_.parent_after_fork();
    quarantine_.parent_after_fork();
    extra_roots_lock_.unlock();
    reclaimer_.parent_after_fork();
    if (workers_ != nullptr)
        workers_->parent_after_fork();
    roots_.parent_after_fork();
    controller_.parent_after_fork();
}

void
MineSweeper::child_after_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    // Phase 1 — release the whole hierarchy (reverse rank order) and
    // reset state describing threads that did not survive the fork.
    jade_.child_after_fork();
    quarantine_.child_after_fork();
    extra_roots_lock_.unlock();
    reclaimer_.child_after_fork();
    if (workers_ != nullptr)
        workers_->child_after_fork();
    roots_.child_after_fork();
    controller_.child_after_fork();

    // Event counters described the parent's history; gauges (live /
    // committed bytes) describe the inherited heap and are kept.
    stats_.reset_events();
    metrics::telemetry().trace_event(metrics::TraceEvent::kForkChild);

    // Phase 2 — allocating fixups. These free and flush through the
    // interposed allocator, re-acquiring quarantine/bin/extent locks,
    // so they must only run once phase 1 has released everything.
    roots_.child_fixup();
    jade_.child_fixup();
}

void
MineSweeper::quiesce()
{
    controller_.shutdown();
}

// ----------------------------------------------------------------- misc

SweepStats
MineSweeper::sweep_stats() const
{
    const metrics::StatSnapshot c = counters();
    SweepStats s;
    s.sweeps = c.sweeps;
#define MSW_SWEEP_STATS_COPY(id, name, kind) s.name = c[Stat::id];
    MSW_STAT_LIST(MSW_SWEEP_STATS_COPY)
#undef MSW_SWEEP_STATS_COPY
    for (unsigned i = 0; i < util::kNumFailpoints; ++i)
        s.failpoint_hits[i] =
            util::failpoint_hits(static_cast<util::Failpoint>(i));
    return s;
}

}  // namespace msw::core
