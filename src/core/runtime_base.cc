#include "core/runtime_base.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "alloc/extent.h"
#include "alloc/policy.h"
#include "alloc/size_classes.h"
#include "core/lifecycle.h"
#include "metrics/telemetry.h"
#include "sweep/residency.h"
#include "sweep/sweeper.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/log.h"

namespace msw::core {

using alloc::ExtentKind;
using alloc::ExtentMeta;
using metrics::TraceEvent;
using quarantine::Entry;
using sweep::Range;

namespace {

/** Quarantine release-order adapter: the quarantine layer knows nothing
    of AllocPolicy, so the hook arrives as fn-pointer + context. */
void
shuffle_entries(quarantine::Entry* entries, std::size_t count, void* ctx)
{
    static_cast<const alloc::AllocPolicy*>(ctx)->shuffle(
        entries, count, sizeof(quarantine::Entry));
}

/** Live bytes: the substrate's, less what sits in quarantine. Relaxed
    loads only, so counters() stays async-signal-safe. */
std::size_t
live_bytes(const alloc::JadeAllocator& jade, const quarantine::Quarantine& q)
{
    const std::size_t quarantined =
        q.pending_bytes() + q.failed_bytes() + q.unmapped_bytes();
    const std::size_t jade_live = jade.live_bytes();
    return jade_live > quarantined ? jade_live - quarantined : 0;
}

}  // namespace

// QuarantineRuntime's member layout is part of its speed: Quarantine
// growing from 96 to 104 bytes shifted every later member by 8 bytes and
// raised perfbench bulk's op_p50_ns by 8.5 % (DESIGN §6). Keep both sizes
// unless an A/B perfbench run shows the new layout costs nothing.
static_assert(sizeof(quarantine::Quarantine) == 96,
              "QuarantineRuntime layout: Quarantine size changed");
static_assert(sizeof(QuarantineRuntime::Config) == 144,
              "QuarantineRuntime layout: Config size changed");

/**
 * Extent hooks that keep the committed-page map exact: this is how sweeps
 * know which pages exist, and how purged pages are excluded from scanning
 * instead of being faulted back in (paper §4.5).
 */
class QuarantineRuntime::Hooks final : public alloc::ExtentHooks
{
  public:
    Hooks(QuarantineRuntime* owner, const vm::Reservation* heap)
        : alloc::ExtentHooks(heap), owner_(owner)
    {}

    [[nodiscard]] bool
    commit(std::uintptr_t addr, std::size_t len) override
    {
        if (heap_->protect_rw(addr, len) != vm::VmStatus::kOk) {
            return false;
        }
        owner_->access_map_.set_range(addr, len);
        owner_->stats_.add(Stat::kPagesCommitted, len >> vm::kPageShift);
        // Pages appearing mid-epoch must be treated as dirty.
        if (owner_->tracker_ != nullptr &&
            owner_->reclaimer_.scan_active()) {
            owner_->tracker_->note_committed(addr, len);
        }
        return true;
    }

    [[nodiscard]] bool
    purge(std::uintptr_t addr, std::size_t len) override
    {
        // True decommit (discard + PROT_NONE), not jemalloc's
        // keep-accessible purge: sweeps skip these pages entirely.
        if (heap_->decommit(addr, len) != vm::VmStatus::kOk) {
            // Pages keep their backing and stay in the access map; the
            // extent stays accounted committed and is re-purged later.
            return false;
        }
        owner_->access_map_.clear_range(addr, len);
        owner_->stats_.add(Stat::kPagesPurged, len >> vm::kPageShift);
        return true;
    }

  private:
    QuarantineRuntime* owner_;
};

QuarantineRuntime::QuarantineRuntime(const Config& config,
                                     std::function<void()> sweep_fn)
    : config_([&] {
          Config c = config;
          // Quarantine runtimes replace decay purging with the post-sweep
          // purge (§4.5); leaving decay on would purge behind the
          // page-access map's back from unhooked call sites.
          c.jade.decay_ms = 0;
          // Resolve the allocation policy exactly once, here, and hand
          // the same resolved pointer to every layer (substrate placement,
          // reclaimer fill, quarantine release order) so they cannot
          // disagree mid-run if MSW_POLICY changes.
          c.policy = &alloc::resolve_policy(
              c.policy != nullptr ? c.policy : c.jade.policy);
          c.jade.policy = c.policy;
          c.reclaim.policy = c.policy;
          return c;
      }()),
      jade_(config_.jade),
      mark_bits_(jade_.reservation().base(), jade_.reservation().size()),
      quarantine_bitmap_(jade_.reservation().base(),
                         jade_.reservation().size()),
      access_map_(jade_.reservation().base(), jade_.reservation().size()),
      quarantine_(config_.tl_buffer_entries,
                  config_.policy->shuffle != nullptr ? &shuffle_entries
                                                     : nullptr,
                  const_cast<alloc::AllocPolicy*>(config_.policy)),
      reclaimer_(config_.reclaim, &jade_, &access_map_, &quarantine_bitmap_,
                 &stats_),
      controller_(config_.control, std::move(sweep_fn), &stats_)
{
    // Before any chaining SEGV handler below (the MprotectTracker) is
    // installed: the crash classifier must be the innermost handler so
    // the tracker forwards non-write-barrier faults to it.
    lifecycle::install_crash_handler_from_env();

    hooks_ = std::make_unique<Hooks>(this, &jade_.reservation());
    jade_.extents().set_hooks(hooks_.get());

    if (config_.make_tracker) {
        tracker_ = sweep::make_dirty_tracker(&jade_.reservation());
        if (auto* mp =
                dynamic_cast<sweep::MprotectTracker*>(tracker_.get())) {
            mp->set_committed_filter(
                [](std::uintptr_t addr, void* arg) {
                    return static_cast<sweep::PageAccessMap*>(arg)->test(
                        addr);
                },
                &access_map_);
        }
    }
    // The derived constructor calls controller_.start() once every member
    // its sweep function touches exists.
}

QuarantineRuntime::~QuarantineRuntime()
{
    // The derived destructor already called controller_.shutdown() (it
    // must: the sweep function touches derived members). Idempotent here,
    // covering runtimes whose sweep function only touches base members.
    controller_.shutdown();
    // Restore default hooks before jade_ (a member) is destroyed, so any
    // destructor-time extent operations do not touch freed state.
    jade_.extents().set_hooks(nullptr);
}

// ----------------------------------------------------------------- alloc

inline void*
QuarantineRuntime::alloc(std::size_t size, std::size_t alignment)
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
    void* p = alignment == 0 ? jade_.alloc(size + 1)
                             : jade_.alloc_aligned(alignment, size + 1);
    if (__builtin_expect(p == nullptr, 0))
        p = alloc_slow(size + 1, alignment);
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
QuarantineRuntime::alloc(std::size_t size)
{
    return alloc(size, 0);
}

void*
QuarantineRuntime::alloc_aligned(std::size_t alignment, std::size_t size)
{
    return alloc(size, alignment);
}

// msw-analyze: slow-path(the substrate returned nullptr: the out-of-memory
// ladder backs off, sweeps and purges)
void*
QuarantineRuntime::alloc_slow(std::size_t request, std::size_t alignment)
{
    // Degradation ladder (never abort): the substrate failed, which means
    // the heap VA is exhausted or a commit hit transient ENOMEM — both
    // conditions a quarantine full of reclaimable memory can cause. Back
    // off, then interleave retries with emergency reclaims; only report
    // OOM to the caller once every attempt is spent.
    unsigned backoff_us = config_.alloc_retry_backoff_us;
    for (unsigned attempt = 0; attempt < config_.alloc_retry_attempts;
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
    metrics::telemetry().trace_event(TraceEvent::kOomReturn, request);
    MSW_LOG_WARN("%s: alloc of %zu bytes failed after %u attempts with "
                 "emergency sweeps; returning nullptr",
                 name(), request, config_.alloc_retry_attempts);
    return nullptr;
}

void
QuarantineRuntime::emergency_reclaim()
{
    stats_.add(Stat::kEmergencySweeps);
    metrics::telemetry().trace_event(TraceEvent::kEmergencySweep);
    if (!SweepController::in_sweep_context()) {
        quarantine_.flush_thread_buffer();
        if (!controller_.run_sweep_now()) {
            // Another thread owns the sweep; give it a moment to finish
            // so the purge below sees its released extents.
            controller_.wait_for_sweep_completion(100);
        }
    }
    // Return every free extent's pages to the OS so the next commit can
    // succeed even when the kernel is the constraint; not while a sweep
    // (another thread's, or one begun since) scans them. A later rung
    // of the ladder tries again.
    reclaimer_.purge_all_unless_scanning();
}

// ------------------------------------------------------------------ free

void
QuarantineRuntime::free(void* ptr)
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
QuarantineRuntime::free_impl(void* ptr)
{
    stats_.add(Stat::kFreeCalls);
    // Resolve the allocation; base must equal the pointer (invalid or
    // interior frees are programming errors, as in the paper).
    const std::uintptr_t addr = to_addr(ptr);
    MSW_CHECK(jade_.contains(addr));
    const ExtentMeta* meta = jade_.extents().lookup_live(addr);
    const bool is_large = meta->kind == ExtentKind::kLarge;
    const std::size_t usable =
        is_large ? meta->bytes() : alloc::class_size(meta->cls);
    const std::uintptr_t base =
        is_large ? meta->base
                 : meta->base + ((addr - meta->base) / usable) * usable;
    MSW_CHECK(base == addr);

    // Double-free de-duplication (paper §3): while the allocation is in
    // quarantine, further frees are idempotent. Checked before the canary:
    // the quarantine fill already overwrote the canary of a freed block,
    // so testing it again on a double free would false-positive.
    if (quarantine_bitmap_.test_and_set(base)) {
        stats_.add(Stat::kDoubleFrees);
        return;
    }

    const auto check = config_.policy->check_canary;
    if (__builtin_expect(check != nullptr, 0)) {
        stats_.add(Stat::kCanaryChecks);
        if (!check(ptr, usable)) {
            stats_.add(Stat::kCanaryViolations);
            alloc::policy_violation("heap-overflow canary clobbered at free",
                                    ptr);
        }
    }

    if (!config_.quarantine_enabled) {
        // Partial versions 1-2 (§5.5): apply unmap/zero side effects, then
        // forward straight to the allocator.
        if (config_.reclaim.unmapping && is_large) {
            if (jade_.reservation().decommit(base, usable) ==
                vm::VmStatus::kOk) {
                if (!reclaimer_.protect_rw_with_retry(base, usable)) {
                    // Pages stuck inaccessible: handing them back for
                    // reuse would fault the program. Keep the block
                    // quarantined (bounded leak) instead of crashing.
                    quarantine_.insert(Entry::make(base, usable, true));
                    return;
                }
            } else if (config_.reclaim.zeroing) {
                std::memset(ptr, 0, usable);
            }
        } else if (config_.reclaim.zeroing) {
            std::memset(ptr, 0, usable);
        }
        quarantine_bitmap_.clear(base);
        jade_.free(ptr);
        return;
    }

    quarantine_.insert(
        reclaimer_.quarantine_prepare(ptr, base, usable, is_large));
    maybe_trigger_sweep();
}

// ------------------------------------------------------------- triggering

void
QuarantineRuntime::maybe_trigger_sweep()
{
    const std::size_t min_bytes = config_.min_sweep_bytes;
    const std::size_t pending = quarantine_.pending_bytes();
    const std::size_t unmapped = quarantine_.unmapped_bytes();
    if (pending < min_bytes && unmapped < min_bytes)
        return;
    const std::size_t failed = quarantine_.failed_bytes();
    const std::size_t jade_live = jade_.live_bytes();
    // Heap size for the trigger: total live bytes minus failed frees
    // (subtracted from both sides, §3.2) minus unmapped quarantine (which
    // no longer consumes memory, §4.2).
    const std::size_t heap =
        jade_live > failed + unmapped ? jade_live - failed - unmapped : 0;

    bool trigger = pending >= min_bytes &&
                   static_cast<double>(pending) >=
                       config_.sweep_threshold * static_cast<double>(heap);

    // Unmapped quarantine pressures kernel/allocator metadata even though
    // it holds no memory: sweep when it reaches a multiple of the
    // footprint (MineSweeper: 9x, §4.2).
    if (!trigger && config_.unmapped_factor > 0 && unmapped >= min_bytes &&
        static_cast<double>(unmapped) >=
            config_.unmapped_factor *
                static_cast<double>(access_map_.committed_bytes())) {
        trigger = true;
    }

    if (!trigger)
        return;

    // Backpressure (§5.7): if the quarantine has grown far past the heap
    // while a sweep is running, pause this allocating thread until the
    // sweep completes.
    const bool pause =
        config_.pause_factor > 0 &&
        static_cast<double>(pending) >
            config_.pause_factor *
                static_cast<double>(heap > pending ? heap - pending
                                                   : pending);
    controller_.request_sweep(pause);
}

// --------------------------------------------------------------- surface

std::size_t
QuarantineRuntime::usable_size(const void* ptr) const
{
    // One byte of the underlying allocation is reserved for the
    // end-pointer guarantee; never report it as usable.
    return jade_.usable_size(ptr) - 1;
}

void
QuarantineRuntime::flush()
{
    quarantine_.flush_thread_buffer();
    jade_.flush();
    // Wait out any in-flight or requested sweep (no-op in synchronous
    // mode; serves stalled requests on this thread otherwise).
    controller_.wait_idle();
}

void
QuarantineRuntime::force_sweep()
{
    quarantine_.flush_thread_buffer();
    controller_.force_sweep();
}

void
QuarantineRuntime::add_root(const void* base, std::size_t len)
{
    roots_.add_root(base, len);
}

void
QuarantineRuntime::remove_root(const void* base)
{
    roots_.remove_root(base);
}

// msw-analyze: slow-path(once-per-thread registration at thread birth,
// not a per-allocation operation)
void
QuarantineRuntime::register_mutator_thread()
{
    roots_.register_current_thread();
    // Arm the lifecycle auto-drain: if this thread exits without the
    // matching unregister call, the TSD destructor performs it.
    lifecycle::note_mutator_thread(this);
}

void
QuarantineRuntime::unregister_mutator_thread()
{
    lifecycle::forget_mutator_thread();
    quarantine_.flush_thread_buffer();
    jade_.flush();
    roots_.unregister_current_thread();
    // A sweep that snapshotted the stack list before the removal may
    // still be scanning this thread's stack; the thread must not exit
    // (and its stack must not be unmapped) until that sweep drains. The
    // wait is on the sweep's ticket, not on the token, which shutdown()
    // keeps claimed for good once no started sweep is left.
    controller_.wait_for_sweep_completion(0);
}

// ------------------------------------------------------------ sweep frame

bool
QuarantineRuntime::open_sweep()
{
    reclaimer_.begin_scan();
    // Test hook: hold the sweep open while armed so tests can exercise
    // the concurrent free()/deferred-unmap machinery deterministically.
    while (util::failpoint_should_fail(util::Failpoint::kSweepDelay))
        ::usleep(1000);
    quarantine_.lock_in(locked_in_);
    if (locked_in_.empty()) {
        reclaimer_.end_scan();
        return false;
    }
    // lock_in already ran the policy's release-order shuffle; count it.
    if (config_.policy->shuffle != nullptr)
        stats_.add(Stat::kReleaseShuffles);
    // The sweep is the slow path by construction, so its clocks run
    // unconditionally; only trace-ring pushes are gated.
    sweep_cpu0_ns_ = sweep::thread_cpu_ns();
    sweep_t0_ns_ = monotonic_ns();
    metrics::telemetry().trace_event(TraceEvent::kSweepBegin,
                                     locked_in_.size());
    return true;
}

void
QuarantineRuntime::arm_tracker()
{
    const std::uint64_t t0 = monotonic_ns();
    if (tracker_ != nullptr) {
        std::vector<Range> tracked = access_map_.committed_runs();
        if (tracker_->tracks_arbitrary_memory()) {
            for (const Range& r : roots_.roots())
                tracked.push_back(r);
        }
        tracker_->begin(tracked);
    }
    record_phase(Stat::kPhaseDirtyScanNs, TraceEvent::kPhaseDirtyScan,
                 monotonic_ns() - t0);
}

void
QuarantineRuntime::stw_recheck(
    const std::function<void(const std::vector<Range>&)>& mark)
{
    const std::uint64_t t0 = monotonic_ns();
    roots_.stop_world();
    std::vector<Range> rescan;
    tracker_->end_collect(rescan);
    std::vector<Range> stw_roots = roots_.stacks_stw();
    if (!tracker_->tracks_arbitrary_memory()) {
        for (const Range& r : roots_.roots_stw())
            stw_roots.push_back(r);
    }
    sweep::append_resident_subranges(stw_roots, &rescan);
    for (const Range& r : roots_.parked_registers())
        rescan.push_back(r);
    mark(rescan);
    roots_.resume_world();
    record_phase(Stat::kStwNs, TraceEvent::kStwPause, monotonic_ns() - t0);
}

void
QuarantineRuntime::finish_sweep(std::uint64_t helper_cpu_ns)
{
    // Drain phase: every entry a deferred unmap affects is still
    // quarantined here, and its pages have been scanned.
    std::uint64_t t0 = monotonic_ns();
    reclaimer_.drain_pending();
    record_phase(Stat::kPhaseDrainNs, TraceEvent::kPhaseDrain,
                 monotonic_ns() - t0);

    // Release phase: walk the locked-in quarantine in windows of
    // kBatchWindow entries and hand each window's releasable entries
    // back in one Reclaimer::release_entries() call (one bin lock per
    // slab). MarkUs marks only allocation bases, so the range test gives
    // it the same answer as a test of the base.
    //
    // Hardened policy: audit the quarantine fill of every entry about to
    // be released. A byte that changed while the block sat unreferenced
    // in quarantine is a write-after-free. Needs the fill to have been
    // written in the first place, hence the zeroing gate; unmapped
    // entries have no bytes to audit.
    const auto check_fill =
        config_.reclaim.zeroing ? config_.policy->check_free_fill : nullptr;
    t0 = monotonic_ns();
    std::vector<Entry> failed;
    Reclaimer::ReleaseTally released;
    std::uint64_t failed_count = 0;
    std::uint64_t fill_checks = 0;
    std::uint64_t fill_violations = 0;
    constexpr std::size_t kBatch = alloc::JadeAllocator::kBatchWindow;
    Entry releasable[kBatch];
    for (std::size_t start = 0; start < locked_in_.size(); start += kBatch) {
        const std::size_t end = std::min(start + kBatch, locked_in_.size());
        std::size_t nreleasable = 0;
        for (std::size_t i = start; i < end; ++i) {
            const Entry& e = locked_in_[i];
            if (config_.sweep_enabled &&
                mark_bits_.test_range(e.real_base(), e.usable)) {
                ++failed_count;
                if (config_.keep_failed) {
                    failed.push_back(e);
                    continue;
                }
            }
            if (check_fill != nullptr && !e.unmapped) {
                ++fill_checks;
                const void* bad = check_fill(to_ptr(e.real_base()), e.usable);
                if (bad != nullptr) {
                    ++fill_violations;
                    alloc::policy_violation(
                        "quarantined memory tampered before release", bad);
                }
            }
            releasable[nreleasable++] = e;
        }
        // Entries whose access could not be restored under pressure stay
        // quarantined; a later sweep retries.
        const std::size_t stuck = failed.size();
        const Reclaimer::ReleaseTally r =
            reclaimer_.release_entries(releasable, nreleasable, &failed);
        failed_count += failed.size() - stuck;
        released.entries += r.entries;
        released.bytes += r.bytes;
    }
    record_phase(Stat::kPhaseReleaseNs, TraceEvent::kPhaseRelease,
                 monotonic_ns() - t0, released.entries);
    stats_.add(Stat::kSweepFillChecks, fill_checks);
    stats_.add(Stat::kCanaryViolations, fill_violations);

    // Close: keep the failed entries quarantined and end the epoch.
    mark_bits_.clear_marks();
    quarantine_.store_failed(std::move(failed));
    reclaimer_.end_scan();
    // §4.5: purge what a whole epoch left unused, not what this release
    // just emptied: the mutator would recommit those slabs within the
    // epoch.
    if (config_.purging)
        jade_.purge_stale();
    stats_.add(Stat::kEntriesReleased, released.entries);
    stats_.add(Stat::kBytesReleased, released.bytes);
    stats_.add(Stat::kFailedFrees, failed_count);
    stats_.add(Stat::kSweepCpuNs,
               sweep::thread_cpu_ns() - sweep_cpu0_ns_ + helper_cpu_ns);
    metrics::telemetry().trace_event(TraceEvent::kSweepEnd,
                                     monotonic_ns() - sweep_t0_ns_,
                                     released.entries);
}

void
QuarantineRuntime::record_phase(Stat stat, TraceEvent event,
                                std::uint64_t ns, std::uint64_t arg)
{
    stats_.add(stat, ns);
    metrics::telemetry().trace_event(event, ns, arg);
}

std::vector<Range>
QuarantineRuntime::internal_regions() const
{
    std::vector<Range> out;
    const auto add = [&out](const vm::Reservation& r) {
        if (r.size() != 0)
            out.push_back(Range{r.base(), r.size()});
    };
    add(jade_.extents().meta_reservation());
    add(jade_.extents().page_map_reservation());
    add(mark_bits_.storage());
    add(mark_bits_.chunk_storage());
    add(quarantine_bitmap_.storage());
    add(quarantine_bitmap_.chunk_storage());
    add(access_map_.storage());
    return out;
}

metrics::StatSnapshot
RuntimeBase::counters() const
{
    metrics::StatSnapshot s;
    stats_.read_all(s.values);
    return s;
}

metrics::StatSnapshot
QuarantineRuntime::counters() const
{
    metrics::StatSnapshot s = RuntimeBase::counters();
    s.sweeps = controller_.sweeps_done();
    // The byte gauges come from the accounting stats() reports. Nothing
    // in this runtime moves their cells, so adding (not overwriting)
    // keeps each row the sum of everything that counted into it.
    s.values[static_cast<unsigned>(Stat::kLiveBytes)] +=
        live_bytes(jade_, quarantine_);
    s.values[static_cast<unsigned>(Stat::kCommittedBytes)] +=
        access_map_.committed_bytes();
    return s;
}

alloc::AllocatorStats
QuarantineRuntime::stats() const
{
    const quarantine::QuarantineStats qs = quarantine_.stats();
    alloc::AllocatorStats s;
    s.live_bytes = live_bytes(jade_, quarantine_);
    s.committed_bytes = access_map_.committed_bytes();
    s.metadata_bytes =
        jade_.stats().metadata_bytes + mark_bits_.shadow_bytes() * 2;
    s.quarantine_bytes =
        qs.pending_bytes + qs.failed_bytes + qs.unmapped_bytes;
    s.sweeps = controller_.sweeps_done();
    s.alloc_calls = stats_.read(Stat::kAllocCalls);
    s.free_calls = stats_.read(Stat::kFreeCalls);
    return s;
}

}  // namespace msw::core
