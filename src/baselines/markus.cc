#include "baselines/markus.h"

#include "core/sweep_controller.h"
#include "metrics/telemetry.h"
#include "sweep/residency.h"
#include "sweep/sweeper.h"
#include "util/bits.h"
#include "util/log.h"

namespace msw::baseline {

using core::Stat;
using quarantine::Entry;
using sweep::Range;

core::QuarantineRuntime::Config
MarkUs::make_config(const Options& opts)
{
    Config c;
    c.jade = opts.jade;
    c.reclaim.unmapping = opts.unmapping;
    // MarkUs does *not* zero freed data — reachability through the
    // quarantine is resolved by the transitive marking pass instead.
    c.reclaim.zeroing = false;
    c.control.background = opts.concurrent;
    c.make_tracker = true;
    return c;
}

MarkUs::MarkUs(const Options& opts)
    : QuarantineRuntime(make_config(opts), [this] { run_mark(); }),
      opts_(opts)
{
    controller_.start();
}

MarkUs::~MarkUs()
{
    // Before our members die: the mark function runs on the controller's
    // thread and calls back into this (derived) object.
    controller_.shutdown();
}

void*
MarkUs::alloc(std::size_t size)
{
    stats_.add(Stat::kAllocCalls);
    void* p = jade_.alloc(size + 1);  // end-pointer slack, as MineSweeper
    if (__builtin_expect(p != nullptr, 1))
        return p;
    return alloc_slow(size + 1, 0);
}

void*
MarkUs::alloc_aligned(std::size_t alignment, std::size_t size)
{
    stats_.add(Stat::kAllocCalls);
    void* p = jade_.alloc_aligned(alignment, size + 1);
    if (__builtin_expect(p != nullptr, 1))
        return p;
    return alloc_slow(size + 1, alignment);
}

void*
MarkUs::alloc_slow(std::size_t request, std::size_t alignment)
{
    // Memory pressure: marking passes both release unreferenced
    // quarantined objects and purge the allocator's free structures
    // (run_mark ends with purge_all), so a forced pass is the strongest
    // reclaim available. Match MineSweeper's contract: never abort,
    // return nullptr only once reclaim stops helping.
    for (unsigned attempt = 0; attempt < 3; ++attempt) {
        force_mark();
        void* p = alignment == 0 ? jade_.alloc(request)
                                 : jade_.alloc_aligned(alignment, request);
        if (p != nullptr)
            return p;
    }
    MSW_LOG_WARN("markus: returning nullptr for %zu-byte request after "
                 "forced marking passes",
                 request);
    return nullptr;
}

void
MarkUs::free(void* ptr)
{
    if (ptr == nullptr)
        return;
    stats_.add(Stat::kFreeCalls);
    const FreeTarget t = classify(to_addr(ptr));

    if (absorb_double_free(ptr, t.base))
        return;

    quarantine_.insert(
        reclaimer_.quarantine_prepare(ptr, t.base, t.usable, t.is_large));
    maybe_trigger_mark();
}

void
MarkUs::maybe_trigger_mark()
{
    const std::size_t pending = quarantine_.pending_bytes();
    if (pending < opts_.min_mark_bytes)
        return;
    const std::size_t failed = quarantine_.failed_bytes();
    const std::size_t unmapped = quarantine_.unmapped_bytes();
    const std::size_t jade_live = jade_.live_bytes();
    const std::size_t heap =
        jade_live > failed + unmapped ? jade_live - failed - unmapped : 0;
    if (static_cast<double>(pending) <
        opts_.quarantine_threshold * static_cast<double>(heap)) {
        return;
    }
    controller_.request_sweep(/*pause_allocations=*/false);
}

void
MarkUs::scan_for_objects(std::uintptr_t base, std::size_t len,
                         std::vector<Range>* worklist)
{
    // Conservative Boehm-style scan: every aligned word is treated as a
    // potential pointer; any word resolving to an allocation marks that
    // allocation and schedules its contents for scanning. The per-word
    // allocation lookup is the cost MineSweeper's range test avoids.
    //
    // Ranges that lie inside the heap may have been derived from racy
    // metadata (lookup_relaxed), so inaccessible pages are skipped; this
    // is stable during a mark because decommits are deferred while the
    // reclaimer's scan epoch is open and commits only ever add
    // accessibility.
    std::uintptr_t lo = align_up(base, sizeof(std::uint64_t));
    const std::uintptr_t hi = align_down(base + len, sizeof(std::uint64_t));
    const std::uintptr_t heap_base = jade_.reservation().base();
    const std::uintptr_t heap_end = jade_.reservation().end();
    const bool in_heap = base >= heap_base && base < heap_end;
    std::uintptr_t page_checked_until = 0;
    for (; lo < hi; lo += sizeof(std::uint64_t)) {
        if (in_heap && lo >= page_checked_until) {
            if (!access_map_.test(lo)) {
                // Skip the rest of this inaccessible page.
                lo = align_down(lo, vm::kPageSize) + vm::kPageSize -
                     sizeof(std::uint64_t);
                continue;
            }
            page_checked_until = align_down(lo, vm::kPageSize) +
                                 vm::kPageSize;
        }
        // Relaxed atomic: mutators write scanned memory concurrently and
        // the conservative mark tolerates torn/stale words by design.
        // msw-relaxed(marker-scan): see above — conservative scan.
        const std::uint64_t v = __atomic_load_n(
            to_ptr_of<const std::uint64_t>(lo), __ATOMIC_RELAXED);
        if (v - heap_base >= heap_end - heap_base)
            continue;
        alloc::JadeAllocator::AllocationInfo info;
        if (!jade_.lookup_relaxed(v, &info))
            continue;
        if (mark_bits_.test_and_set(info.base))
            continue;  // already marked
        // Unmapped quarantined objects have no contents to traverse.
        if (access_map_.test(info.base))
            worklist->push_back(Range{info.base, info.usable});
    }
}

void
MarkUs::drain_worklist(std::vector<Range>* worklist)
{
    while (!worklist->empty()) {
        const Range r = worklist->back();
        worklist->pop_back();
        scan_for_objects(r.base, r.len, worklist);
    }
}

void
MarkUs::run_mark()
{
    reclaimer_.begin_scan();
    std::vector<Entry> locked_in;
    quarantine_.lock_in(locked_in);
    if (locked_in.empty()) {
        reclaimer_.end_scan();
        return;
    }

    const std::uint64_t cpu0 = sweep::thread_cpu_ns();
    const std::uint64_t mark_t0 = core::monotonic_ns();
    metrics::telemetry().trace_event(metrics::TraceEvent::kSweepBegin,
                                     locked_in.size());

    // Phase 1a (dirty-scan): arm the write tracker.
    tracker_->begin(access_map_.committed_runs());
    const std::uint64_t dirty_ns = core::monotonic_ns() - mark_t0;
    stats_.add(Stat::kPhaseDirtyScanNs, dirty_ns);
    metrics::telemetry().trace_event(metrics::TraceEvent::kPhaseDirtyScan,
                                     dirty_ns);

    // Phase 1b: concurrent transitive mark from the roots.
    std::vector<Range> worklist;
    std::vector<Range> root_scan;
    std::vector<Range> root_ranges = roots_.roots();
    for (const Range& r : roots_.stacks())
        root_ranges.push_back(r);
    sweep::append_resident_subranges(root_ranges, &root_scan);
    for (const Range& r : root_scan)
        scan_for_objects(r.base, r.len, &worklist);
    drain_worklist(&worklist);

    // Phase 2: stop-the-world recheck — rescan dirtied pages, stacks and
    // registers, continuing the transitive closure to a fixpoint
    // (Boehm's mostly-parallel collection).
    const std::uint64_t stw_t0 = core::monotonic_ns();
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
    for (const Range& r : rescan)
        scan_for_objects(r.base, r.len, &worklist);
    drain_worklist(&worklist);
    roots_.resume_world();
    const std::uint64_t stw_ns = core::monotonic_ns() - stw_t0;
    stats_.add(Stat::kStwNs, stw_ns);
    metrics::telemetry().trace_event(metrics::TraceEvent::kStwPause,
                                     stw_ns);
    // Mark phase: both transitive passes (the STW recheck included).
    const std::uint64_t mark_ns = core::monotonic_ns() - mark_t0 - dirty_ns;
    stats_.add(Stat::kPhaseMarkNs, mark_ns);
    metrics::telemetry().trace_event(metrics::TraceEvent::kPhaseMark,
                                     mark_ns);

    // Deferred unmaps before release: every affected entry is still
    // quarantined here and its pages have been scanned.
    const std::uint64_t drain_t0 = core::monotonic_ns();
    reclaimer_.drain_pending();
    const std::uint64_t drain_ns = core::monotonic_ns() - drain_t0;
    stats_.add(Stat::kPhaseDrainNs, drain_ns);
    metrics::telemetry().trace_event(metrics::TraceEvent::kPhaseDrain,
                                     drain_ns);

    // Phase 3: release unmarked quarantined allocations.
    const std::uint64_t release_t0 = core::monotonic_ns();
    std::vector<Entry> failed;
    std::vector<Entry> releasable;
    for (const Entry& e : locked_in) {
        if (mark_bits_.test(e.real_base()))
            failed.push_back(e);
        else
            releasable.push_back(e);
    }
    // Entries whose accessibility cannot be restored land in `failed`
    // too: kept quarantined and retried on the next pass rather than
    // handed out inaccessible.
    const std::uint64_t released_n =
        reclaimer_.release_entries(releasable.data(), releasable.size(),
                                   &failed)
            .entries;
    const std::uint64_t release_ns = core::monotonic_ns() - release_t0;
    stats_.add(Stat::kPhaseReleaseNs, release_ns);
    metrics::telemetry().trace_event(metrics::TraceEvent::kPhaseRelease,
                                     release_ns, released_n);
    mark_bits_.clear_marks();
    quarantine_.store_failed(std::move(failed));

    reclaimer_.end_scan();

    // MarkUs aggressively reclaims allocator free structures after a
    // marking pass (the paper notes this need for large quarantines).
    jade_.purge_all();

    stats_.add(Stat::kSweepCpuNs, sweep::thread_cpu_ns() - cpu0);
    metrics::telemetry().trace_event(metrics::TraceEvent::kSweepEnd,
                                     core::monotonic_ns() - mark_t0,
                                     released_n);
}

void
MarkUs::force_mark()
{
    quarantine_.flush_thread_buffer();
    controller_.force_sweep();
}

}  // namespace msw::baseline
