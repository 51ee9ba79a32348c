/**
 * @file
 * MineSweeper: drop-in use-after-free mitigation (the paper's core system).
 *
 * MineSweeper wraps a JadeHeap allocator. free() does not deallocate:
 * the allocation is zero-filled (or its pages unmapped, if large) and
 * placed in quarantine. When the quarantine grows past a threshold, a
 * background sweeper linearly scans all committed heap pages, registered
 * roots and mutator stacks, marking in a shadow map every word that points
 * into the heap. Quarantined allocations with no marked granule provably
 * have no (aligned, unhidden) dangling pointers and are released to the
 * real allocator; the rest remain quarantined as failed frees.
 *
 * Guarantees (matching the paper §1.2/§3.3):
 *  - an allocation is never recycled while a discoverable pointer to it
 *    exists in scanned memory, so use-after-free cannot become
 *    use-after-reallocate;
 *  - double frees are idempotent;
 *  - semantics of correct programs are unchanged (nothing is freed that
 *    the programmer did not free; hidden/XORed pointers never crash the
 *    scheme, they merely fall outside the guarantee);
 *  - every allocation is served with at least one byte of slack so
 *    one-past-the-end pointers keep their object quarantined.
 *
 * The mechanism layers live in the QuarantineRuntime base (see
 * runtime_base.h): SweepController decides *when* a sweep runs, Reclaimer
 * decides *how* quarantined memory comes back, StatCells counts the fast
 * path without cache-line contention; the base also runs the mutator
 * path (alloc, free, the trigger, the out-of-memory ladder) MarkUs
 * shares. This class keeps the linear sweep (sweep::Marker with its
 * helper threads, the release filter and the Fig 15-17 sweep switches)
 * and the mapping of Options onto the base's Config.
 */
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/options.h"
#include "core/runtime_base.h"
#include "sweep/sweeper.h"
#include "util/failpoint.h"
#include "util/spin_lock.h"

namespace msw::core {

/**
 * Counters describing sweeping activity (Fig 12, Fig 14 inputs): the
 * sweep count, one field per MSW_STAT_LIST row and the failpoint fires.
 */
struct SweepStats {
    std::uint64_t sweeps = 0;
#define MSW_SWEEP_STATS_FIELD(id, name, kind) std::uint64_t name = 0;
    MSW_STAT_LIST(MSW_SWEEP_STATS_FIELD)
#undef MSW_SWEEP_STATS_FIELD

    /** Process-global failpoint fire counts, indexed by util::Failpoint. */
    std::uint64_t failpoint_hits[util::kNumFailpoints] = {};
};

class MineSweeper final : public QuarantineRuntime
{
  public:
    explicit MineSweeper(const Options& opts = {});
    ~MineSweeper() override;

    MineSweeper(const MineSweeper&) = delete;
    MineSweeper& operator=(const MineSweeper&) = delete;

    const char* name() const override { return "minesweeper"; }

    /**
     * Install a callback producing *additional* root ranges, re-evaluated
     * at the start of every sweep. The LD_PRELOAD shim uses this to
     * rescan /proc/self/maps so globals and late-created regions are
     * covered without explicit registration. Ranges overlapping this
     * instance's internal_regions() are excluded automatically. Safe
     * against a concurrently running sweep.
     */
    void set_extra_roots_provider(
        std::function<std::vector<sweep::Range>()> provider);

    // ---------------------------------------------------------- Control

    SweepStats sweep_stats() const;

    // ------------------------------------------------- Process lifecycle

    /**
     * atfork composition, called by core/lifecycle (never directly):
     * prepare_fork() quiesces the sweep and acquires every subsystem
     * lock in rank order — controller (10), roots (12), workers (14),
     * reclaimer (16), extra-roots config (18), quarantine (20/22) and
     * the jade substrate (30–42) — so the child forks with every
     * invariant consistent. parent_after_fork() releases in reverse.
     * child_after_fork() releases in reverse, resets state describing
     * threads that do not exist in the child (sweep control, STW
     * handshake, helper pool), zeroes the event counters (gauges
     * describing the inherited heap are preserved) and then runs the
     * allocating fixups — pruning dead mutator records and adopting
     * orphaned thread caches — once no prepare-held lock remains.
     */
    void prepare_fork();
    void parent_after_fork();
    void child_after_fork();

    /**
     * Stop the sweeping machinery ahead of process teardown (idempotent;
     * delegates to the controller's shutdown drain). Allocation keeps
     * working afterwards — the substrate needs no sweeper — which is
     * what the shim's destructor-time degradation relies on.
     */
    void quiesce();

    /**
     * Completed-sweep count — the quarantine epoch quoted by crash
     * reports. Async-signal-safe: one relaxed atomic load.
     */
    std::uint64_t sweep_epoch() const { return controller_.sweeps_done(); }

  private:
    void run_sweep();
    std::vector<sweep::Range> scan_ranges() const;

    static Config make_config(const Options& opts);

    /** The sweep's own switches (Options::sweep_enabled, keep_failed,
        purging: the Fig 15-17 ablations). */
    const bool mark_;
    const bool keep_failed_;
    const bool purge_;
    sweep::Marker marker_;
    std::unique_ptr<sweep::SweepWorkers> workers_;

    // The provider is installed from the shim while the sweeper may be
    // mid-scan; scan_ranges() copies it under this lock before invoking.
    // Rank kCoreConfig: leaf, held only around the std::function copy.
    mutable SpinLock extra_roots_lock_{util::LockRank::kCoreConfig};
    std::function<std::vector<sweep::Range>()> extra_roots_provider_
        MSW_GUARDED_BY(extra_roots_lock_);
};

}  // namespace msw::core
