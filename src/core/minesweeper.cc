#include "core/minesweeper.h"

#include <unistd.h>

#include <cstring>

#include "alloc/policy.h"
#include "core/lifecycle.h"
#include "metrics/telemetry.h"
#include "sweep/residency.h"
#include "util/bits.h"
#include "util/log.h"

namespace msw::core {

using quarantine::Entry;
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
    c.report_double_frees = opts.report_double_frees;
    return c;
}

// msw-analyze: slow-path(one-time engine construction under the shim's
// g_state init latch; never runs on the steady-state alloc/free path)
MineSweeper::MineSweeper(const Options& opts)
    : QuarantineRuntime(make_config(opts), [this] { run_sweep(); }),
      opts_([&] {
          Options o = opts;
          // Mirror the base's decay override (§4.5) so options() reports
          // the configuration actually in effect.
          o.jade.decay_ms = 0;
          return o;
      }()),
      marker_(&mark_bits_, jade_.reservation().base(),
              jade_.reservation().end())
{
    if (opts_.helper_threads > 0)
        workers_ = std::make_unique<sweep::SweepWorkers>(
            opts_.helper_threads);

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

// ----------------------------------------------------------------- alloc

void*
MineSweeper::alloc(std::size_t size)
{
    // Telemetry op sampling (MSW_TELEMETRY=ops): off means one relaxed
    // load and a predicted-not-taken branch; on costs two clock reads.
    const bool timed = __builtin_expect(metrics::telemetry().ops_on(), 0);
    const std::uint64_t t0 = timed ? monotonic_ns() : 0;
    stats_.add(Stat::kAllocCalls);
    controller_.maybe_pause();
    // +1 byte so one-past-the-end pointers stay inside the allocation
    // (paper §3.2); size classes are 16 B-granular so this usually costs
    // nothing.
    void* p = jade_.alloc(size + 1);
    if (__builtin_expect(p == nullptr, 0))
        p = alloc_slow(size + 1, 0);
    // Hardened policy: arm the canary in the reserved slack byte. Under
    // the default policy this is one predicted-not-taken branch.
    const auto arm = config_.policy->arm_canary;
    if (__builtin_expect(arm != nullptr, 0) && p != nullptr)
        arm(p, jade_.usable_size(p));
    if (__builtin_expect(timed, 0))
        metrics::telemetry().alloc_ns.record(monotonic_ns() - t0);
    return p;
}

void*
MineSweeper::alloc_aligned(std::size_t alignment, std::size_t size)
{
    const bool timed = __builtin_expect(metrics::telemetry().ops_on(), 0);
    const std::uint64_t t0 = timed ? monotonic_ns() : 0;
    stats_.add(Stat::kAllocCalls);
    controller_.maybe_pause();
    void* p = jade_.alloc_aligned(alignment, size + 1);
    if (__builtin_expect(p == nullptr, 0))
        p = alloc_slow(size + 1, alignment);
    const auto arm = config_.policy->arm_canary;
    if (__builtin_expect(arm != nullptr, 0) && p != nullptr)
        arm(p, jade_.usable_size(p));
    if (__builtin_expect(timed, 0))
        metrics::telemetry().alloc_ns.record(monotonic_ns() - t0);
    return p;
}

void*
MineSweeper::alloc_slow(std::size_t request, std::size_t alignment)
{
    // Degradation ladder (never abort): the substrate failed, which means
    // the heap VA is exhausted or a commit hit transient ENOMEM — both
    // conditions a quarantine full of reclaimable memory can cause. Back
    // off, then interleave retries with emergency reclaims; only report
    // OOM to the caller once every attempt is spent.
    unsigned backoff_us = opts_.alloc_retry_backoff_us;
    for (unsigned attempt = 0; attempt < opts_.alloc_retry_attempts;
         ++attempt) {
        if (attempt > 0) {
            // First retry is cheap (the kernel may just have been briefly
            // unwilling); later ones drain quarantine first.
            emergency_reclaim();
        }
        if (backoff_us > 0) {
            ::usleep(backoff_us);
            backoff_us *= 2;
        }
        stats_.add(Stat::kCommitRetries);
        void* p = alignment > 0 ? jade_.alloc_aligned(alignment, request)
                                : jade_.alloc(request);
        if (p != nullptr)
            return p;
    }
    stats_.add(Stat::kOomReturns);
    metrics::telemetry().trace_event(metrics::TraceEvent::kOomReturn,
                                     request);
    MSW_LOG_WARN("alloc of %zu bytes failed after %u attempts with "
                 "emergency sweeps; returning nullptr",
                 request, opts_.alloc_retry_attempts);
    return nullptr;
}

void
MineSweeper::emergency_reclaim()
{
    stats_.add(Stat::kEmergencySweeps);
    metrics::telemetry().trace_event(metrics::TraceEvent::kEmergencySweep);
    if (!SweepController::in_sweep_context()) {
        quarantine_.flush_thread_buffer();
        if (!controller_.run_sweep_now()) {
            // Another thread owns the sweep; give it a moment to finish
            // so the purge below sees its released extents.
            controller_.wait_for_sweep_completion(100);
        }
    }
    // Return every free extent's pages to the OS so the next commit can
    // succeed even when the kernel is the constraint.
    jade_.purge_all();
}

void*
MineSweeper::realloc(void* ptr, std::size_t new_size)
{
    if (ptr == nullptr)
        return alloc(new_size);
    if (new_size == 0)
        new_size = 1;
    const std::size_t old_usable = usable_size(ptr);
    if (new_size <= old_usable && new_size * 2 > old_usable)
        return ptr;
    void* fresh = alloc(new_size);
    if (fresh == nullptr) {
        // Per the realloc contract the original block stays valid.
        return nullptr;
    }
    std::memcpy(fresh, ptr,
                old_usable < new_size ? old_usable : new_size);
    free(ptr);
    return fresh;
}

// ------------------------------------------------------------------ free

void
MineSweeper::free(void* ptr)
{
    if (ptr == nullptr)
        return;
    // Same sampling shape as alloc(): gate cost when off is one relaxed
    // load; the early returns inside free_impl stay untouched.
    const bool timed = __builtin_expect(metrics::telemetry().ops_on(), 0);
    if (!timed) {
        free_impl(ptr);
        return;
    }
    const std::uint64_t t0 = monotonic_ns();
    free_impl(ptr);
    metrics::telemetry().free_ns.record(monotonic_ns() - t0);
}

void
MineSweeper::free_impl(void* ptr)
{
    stats_.add(Stat::kFreeCalls);
    const FreeTarget t = classify(to_addr(ptr));

    // Double-free de-duplication (paper §3): while the allocation is in
    // quarantine, further frees are idempotent. Checked before the canary:
    // the quarantine fill already overwrote the canary of a freed block,
    // so testing it again on a double free would false-positive.
    if (absorb_double_free(ptr, t.base))
        return;

    const auto check = config_.policy->check_canary;
    if (__builtin_expect(check != nullptr, 0)) {
        stats_.add(Stat::kCanaryChecks);
        if (!check(ptr, t.usable)) {
            stats_.add(Stat::kCanaryViolations);
            alloc::policy_violation("heap-overflow canary clobbered at free",
                                    ptr);
        }
    }

    if (!opts_.quarantine_enabled) {
        // Partial versions 1-2 (§5.5): apply unmap/zero side effects, then
        // forward straight to the allocator.
        if (opts_.unmapping && t.is_large) {
            if (jade_.reservation().decommit(t.base, t.usable) ==
                vm::VmStatus::kOk) {
                if (!reclaimer_.protect_rw_with_retry(t.base, t.usable)) {
                    // Pages stuck inaccessible: handing them back for
                    // reuse would fault the program. Keep the block
                    // quarantined (bounded leak) instead of crashing.
                    quarantine_.insert(Entry::make(t.base, t.usable, true));
                    return;
                }
            } else if (opts_.zeroing) {
                std::memset(ptr, 0, t.usable);
            }
        } else if (opts_.zeroing) {
            std::memset(ptr, 0, t.usable);
        }
        quarantine_bitmap_.clear(t.base);
        jade_.free(ptr);
        return;
    }

    quarantine_.insert(
        reclaimer_.quarantine_prepare(ptr, t.base, t.usable, t.is_large));
    maybe_trigger_sweep();
}

// ------------------------------------------------------------- triggering

void
MineSweeper::maybe_trigger_sweep()
{
    const std::size_t pending = quarantine_.pending_bytes();
    if (pending < opts_.min_sweep_bytes &&
        quarantine_.unmapped_bytes() < opts_.min_sweep_bytes) {
        return;
    }
    const std::size_t failed = quarantine_.failed_bytes();
    const std::size_t unmapped = quarantine_.unmapped_bytes();
    const std::size_t jade_live = jade_.live_bytes();
    // Heap size for the trigger: total live bytes minus failed frees
    // (subtracted from both sides, §3.2) minus unmapped quarantine (which
    // no longer consumes memory, §4.2).
    const std::size_t heap =
        jade_live > failed + unmapped ? jade_live - failed - unmapped : 0;

    bool trigger =
        pending >= opts_.min_sweep_bytes &&
        static_cast<double>(pending) >=
            opts_.sweep_threshold * static_cast<double>(heap);

    // Unmapped quarantine pressures kernel/allocator metadata even though
    // it holds no memory: sweep when it reaches 9x the footprint (§4.2).
    if (!trigger && unmapped >= opts_.min_sweep_bytes &&
        static_cast<double>(unmapped) >=
            opts_.unmapped_factor *
                static_cast<double>(access_map_.committed_bytes())) {
        trigger = true;
    }

    if (!trigger)
        return;

    // Backpressure (§5.7): if the quarantine has grown far past the heap
    // while a sweep is running, pause this allocating thread until the
    // sweep completes.
    const bool pause =
        opts_.pause_factor > 0 &&
        static_cast<double>(pending) >
            opts_.pause_factor *
                static_cast<double>(heap > pending ? heap - pending
                                                   : pending);
    controller_.request_sweep(pause);
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

    if (opts_.sweep_enabled) {
        arm_tracker();
        // Phase 1b (mark): concurrent linear mark of all scannable
        // memory, plus the STW recheck when tracking.
        const std::uint64_t mark_t0 = monotonic_ns();
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
                     monotonic_ns() - mark_t0, scanned);
    }

    drain_phase();

    // Phase 3: walk the locked-in quarantine; release unmarked entries.
    // Each worker collects the releasable entries of each ticket and
    // hands them back in one Reclaimer::release_entries() call (one bin
    // lock per slab); tallies stay worker-local until the join.
    struct WorkerTally {
        std::vector<Entry> failed;
        std::uint64_t released = 0;
        std::uint64_t released_bytes = 0;
        std::uint64_t failed_count = 0;
        std::uint64_t fill_checks = 0;
        std::uint64_t fill_violations = 0;
    };
    const unsigned nworkers =
        workers_ != nullptr ? workers_->count() : 1;
    std::vector<WorkerTally> tallies(nworkers);
    std::atomic<std::size_t> next{0};

    // Hardened policy: audit the quarantine fill of every entry about to
    // be released. A byte that changed while the block sat unreferenced
    // in quarantine is a write-after-free. Needs the fill to have been
    // written in the first place, hence the zeroing gate; unmapped
    // entries have no bytes to audit.
    const auto check_fill =
        opts_.zeroing ? config_.policy->check_free_fill : nullptr;

    auto release_job = [&](unsigned index) {
        // Sweep context with restore on exit: index 0 runs on the
        // *calling* thread, which for emergency and watchdog-fallback
        // sweeps is a mutator whose own watchdog checks must survive.
        SweepController::ScopedSweepContext scoped;
        WorkerTally t;
        constexpr std::size_t kBatch = alloc::JadeAllocator::kBatchWindow;
        Entry releasable[kBatch];
        for (;;) {
            // msw-relaxed(work-cursor): batch ticket; only RMW
            // atomicity matters, entries are read-only here.
            const std::size_t start =
                next.fetch_add(kBatch, std::memory_order_relaxed);
            if (start >= locked_in_.size())
                break;
            const std::size_t end =
                std::min(start + kBatch, locked_in_.size());
            std::size_t nreleasable = 0;
            for (std::size_t i = start; i < end; ++i) {
                const Entry& e = locked_in_[i];
                const bool marked =
                    opts_.sweep_enabled &&
                    mark_bits_.test_range(e.real_base(), e.usable);
                if (marked) {
                    ++t.failed_count;
                    if (opts_.keep_failed) {
                        t.failed.push_back(e);
                        continue;
                    }
                }
                if (check_fill != nullptr && !e.unmapped) {
                    ++t.fill_checks;
                    const void* bad = check_fill(to_ptr(e.real_base()),
                                                 e.usable);
                    if (bad != nullptr) {
                        ++t.fill_violations;
                        alloc::policy_violation(
                            "quarantined memory tampered before release",
                            bad);
                    }
                }
                releasable[nreleasable++] = e;
            }
            // Entries whose access could not be restored under pressure
            // stay quarantined; a later sweep retries.
            const std::size_t stuck = t.failed.size();
            const Reclaimer::ReleaseTally r = reclaimer_.release_entries(
                releasable, nreleasable, &t.failed);
            t.failed_count += t.failed.size() - stuck;
            t.released += r.entries;
            t.released_bytes += r.bytes;
        }
        tallies[index] = std::move(t);
    };
    const std::uint64_t release_t0 = monotonic_ns();
    if (workers_ != nullptr)
        workers_->run(release_job);
    else
        release_job(0);
    const std::uint64_t release_ns = monotonic_ns() - release_t0;

    // The worker join published every worker's tally.
    std::vector<Entry> failed;
    WorkerTally sum;
    for (WorkerTally& t : tallies) {
        failed.insert(failed.end(), t.failed.begin(), t.failed.end());
        sum.released += t.released;
        sum.released_bytes += t.released_bytes;
        sum.failed_count += t.failed_count;
        sum.fill_checks += t.fill_checks;
        sum.fill_violations += t.fill_violations;
    }
    record_phase(Stat::kPhaseReleaseNs, metrics::TraceEvent::kPhaseRelease,
                 release_ns, sum.released);
    stats_.add(Stat::kEntriesReleased, sum.released);
    stats_.add(Stat::kBytesReleased, sum.released_bytes);
    stats_.add(Stat::kFailedFrees, sum.failed_count);
    stats_.add(Stat::kSweepFillChecks, sum.fill_checks);
    stats_.add(Stat::kCanaryViolations, sum.fill_violations);

    const std::uint64_t helpers1 =
        workers_ != nullptr ? workers_->helper_cpu_ns() : 0;
    // §4.5: full allocator purge synchronised with the end of the sweep.
    close_sweep(std::move(failed), opts_.purging, sum.released,
                helpers1 - helpers0);
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
