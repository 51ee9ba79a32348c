#include "baselines/markus.h"

#include "sweep/residency.h"
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
    // (run_mark closes with a purge), so a forced pass is the strongest
    // reclaim available. Match MineSweeper's contract: never abort,
    // return nullptr only once reclaim stops helping.
    for (unsigned attempt = 0; attempt < 3; ++attempt) {
        force_sweep();
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
MarkUs::mark_from(const std::vector<Range>& ranges,
                  std::vector<Range>* worklist)
{
    for (const Range& r : ranges)
        scan_for_objects(r.base, r.len, worklist);
    while (!worklist->empty()) {
        const Range r = worklist->back();
        worklist->pop_back();
        scan_for_objects(r.base, r.len, worklist);
    }
}

void
MarkUs::run_mark()
{
    if (!open_sweep())
        return;
    arm_tracker();

    // Phase 1b: concurrent transitive mark from the roots.
    const std::uint64_t mark_t0 = core::monotonic_ns();
    std::vector<Range> worklist;
    std::vector<Range> root_ranges = roots_.roots();
    for (const Range& r : roots_.stacks())
        root_ranges.push_back(r);
    std::vector<Range> root_scan;
    sweep::append_resident_subranges(root_ranges, &root_scan);
    mark_from(root_scan, &worklist);

    // Phase 2: stop-the-world recheck, continuing the transitive closure
    // to a fixpoint (Boehm's mostly-parallel collection).
    stw_recheck([&](const std::vector<Range>& rescan) {
        mark_from(rescan, &worklist);
    });
    // Mark phase: both transitive passes (the STW recheck included).
    record_phase(Stat::kPhaseMarkNs, metrics::TraceEvent::kPhaseMark,
                 core::monotonic_ns() - mark_t0);

    drain_phase();

    // Phase 3: release unmarked quarantined allocations.
    const std::uint64_t release_t0 = core::monotonic_ns();
    std::vector<Entry> failed;
    std::vector<Entry> releasable;
    for (const Entry& e : locked_in_) {
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
    record_phase(Stat::kPhaseReleaseNs, metrics::TraceEvent::kPhaseRelease,
                 core::monotonic_ns() - release_t0, released_n);

    // MarkUs aggressively reclaims allocator free structures after a
    // marking pass (the paper notes this need for large quarantines).
    close_sweep(std::move(failed), /*purge=*/true, released_n,
                /*helper_cpu_ns=*/0);
}

}  // namespace msw::baseline
