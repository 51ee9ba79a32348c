#include "baselines/markus.h"

#include "sweep/residency.h"
#include "util/bits.h"
#include "util/clock.h"

namespace msw::baseline {

using core::Stat;
using sweep::Range;

core::QuarantineRuntime::Config
MarkUs::make_config(const Options& opts)
{
    Config c;
    c.jade = opts.jade;
    // Large quarantined allocations give their pages back (§4.2).
    c.reclaim.unmapping = true;
    // MarkUs does *not* zero freed data — reachability through the
    // quarantine is resolved by the transitive marking pass instead.
    c.reclaim.zeroing = false;
    // Marking runs on the controller's background thread.
    c.control.background = true;
    c.make_tracker = true;
    // The 25 % trigger alone: no unmapped trigger, no allocation pausing
    // (the Config's defaults).
    c.sweep_threshold = 0.25;
    c.min_sweep_bytes = opts.min_mark_bytes;
    return c;
}

MarkUs::MarkUs(const Options& opts)
    : QuarantineRuntime(make_config(opts), [this] { run_mark(); })
{
    controller_.start();
}

MarkUs::~MarkUs()
{
    // Before our members die: the mark function runs on the controller's
    // thread and calls back into this (derived) object.
    controller_.shutdown();
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

std::uint64_t
MarkUs::mark_from(const std::vector<Range>& ranges,
                  std::vector<Range>* worklist)
{
    std::uint64_t scanned = 0;
    for (const Range& r : ranges) {
        scan_for_objects(r.base, r.len, worklist);
        scanned += r.len;
    }
    while (!worklist->empty()) {
        const Range r = worklist->back();
        worklist->pop_back();
        scan_for_objects(r.base, r.len, worklist);
        scanned += r.len;
    }
    return scanned;
}

void
MarkUs::run_mark()
{
    if (!open_sweep())
        return;
    arm_tracker();

    // Phase 1b: concurrent transitive mark from the roots.
    const std::uint64_t mark_t0 = util::monotonic_ns();
    std::vector<Range> worklist;
    std::vector<Range> root_ranges = roots_.roots();
    for (const Range& r : roots_.stacks())
        root_ranges.push_back(r);
    std::vector<Range> root_scan;
    sweep::append_resident_subranges(root_ranges, &root_scan);
    std::uint64_t scanned = mark_from(root_scan, &worklist);

    // Phase 2: stop-the-world recheck, continuing the transitive closure
    // to a fixpoint (Boehm's mostly-parallel collection).
    stw_recheck([&](const std::vector<Range>& rescan) {
        scanned += mark_from(rescan, &worklist);
    });
    stats_.add(Stat::kBytesScanned, scanned);
    // Mark phase: both transitive passes (the STW recheck included).
    record_phase(Stat::kPhaseMarkNs, metrics::TraceEvent::kPhaseMark,
                 util::monotonic_ns() - mark_t0, scanned);

    // Phase 3: drain, release unmarked quarantined allocations and
    // close. MarkUs aggressively reclaims allocator free structures after
    // a marking pass (the paper notes this need for large quarantines):
    // Config::purging stays on.
    finish_sweep(/*helper_cpu_ns=*/0);
}

}  // namespace msw::baseline
