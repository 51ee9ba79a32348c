/**
 * @file
 * MarkUs baseline (Ainsworth & Jones, S&P 2020) — the strongest prior
 * quarantine scheme the paper compares against.
 *
 * Like MineSweeper, MarkUs quarantines freed allocations; unlike
 * MineSweeper it decides safety with a *transitive, conservative
 * mark-and-sweep* in the style of the Boehm collector: starting from the
 * roots (globals, stacks, registers), every reachable object is marked by
 * chasing pointers through object contents; quarantined objects that were
 * never reached are released. This handles cycles inside the quarantine
 * naturally (a GC property) but pays for it with pointer-chasing,
 * per-word allocation lookups and mark-stack traffic — exactly the costs
 * MineSweeper's linear sweep eliminates (paper §4.1, §6.6).
 *
 * All plumbing shared with MineSweeper — the mutator path (alloc, free,
 * the trigger formula, the out-of-memory ladder), extent hooks,
 * quarantine epochs, double-free bitmap, root/thread registration,
 * marker-thread lifecycle, deferred unmaps and the sweep frame around
 * the mark — lives in core::QuarantineRuntime; this class keeps only
 * what makes MarkUs MarkUs: the transitive mark, its release filter, the
 * purge after every pass and the trigger values (25 %, no unmapped
 * trigger, no allocation pausing).
 *
 * Fidelity notes:
 *  - 25 % quarantine threshold (the paper's MarkUs configuration, §3.2);
 *  - no zeroing on free (MarkUs does not zero);
 *  - physical pages of large quarantined allocations are released, as in
 *    MarkUs (§4.2);
 *  - mostly-concurrent marking: a concurrent pass plus a stop-the-world
 *    recheck that rescans pages dirtied during marking and continues the
 *    transitive closure to a fixpoint (Boehm's mostly-parallel scheme).
 */
#pragma once

#include <vector>

#include "core/runtime_base.h"

namespace msw::baseline {

class MarkUs final : public core::QuarantineRuntime
{
  public:
    /** What a caller may set; the rest of the configuration is fixed
        by make_config (see the fidelity notes above). */
    struct Options {
        /** No marking pass while the quarantine holds less than this. */
        std::size_t min_mark_bytes = std::size_t{1} << 20;
        alloc::JadeAllocator::Options jade{};
    };

    MarkUs() : MarkUs(Options{}) {}
    explicit MarkUs(const Options& opts);
    ~MarkUs() override;

    MarkUs(const MarkUs&) = delete;
    MarkUs& operator=(const MarkUs&) = delete;

    const char* name() const override { return "markus"; }

  private:
    void run_mark();
    /**
     * Scan [base, base+len) for pointers; push newly marked objects.
     * Conservative scan over racy memory: sanitizer instrumentation off
     * (see Marker::scan_chunk).
     */
    MSW_NO_SANITIZE_ADDRESS MSW_NO_SANITIZE_THREAD
    void scan_for_objects(std::uintptr_t base, std::size_t len,
                          std::vector<sweep::Range>* worklist);
    /** Scan @p ranges, then every object they reach, transitively;
        returns the bytes scanned. */
    std::uint64_t mark_from(const std::vector<sweep::Range>& ranges,
                            std::vector<sweep::Range>* worklist);

    static Config make_config(const Options& opts);
};

}  // namespace msw::baseline
