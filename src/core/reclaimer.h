/**
 * @file
 * Physical-memory reclamation for quarantined allocations, extracted from
 * the MineSweeper god-object and shared with the MarkUs baseline.
 *
 * Three concerns live here:
 *  - the free-path unmap policy for large quarantined allocations (§4.2):
 *    release physical pages immediately, or — while a sweep is scanning —
 *    defer the decommit so concurrent marking never faults on a page that
 *    vanished mid-scan;
 *  - the deferred pending-unmap queue and its drain points (after the
 *    mark phase and at scan end);
 *  - entry release after a successful sweep: clear the quarantine bit
 *    and hand the block back to the substrate — decommitted large
 *    ranges as they are, the rest one bin lock per slab.
 *
 * Every failure path degrades instead of aborting: a refused decommit
 * downgrades the entry to mapped-and-zeroed (a bounded leak with correct
 * accounting), a stuck protect_rw keeps the entry quarantined for the
 * next sweep. Never a safety loss.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "alloc/jade_allocator.h"
#include "core/stat_cells.h"
#include "quarantine/quarantine.h"
#include "sweep/page_access_map.h"
#include "sweep/shadow_map.h"
#include "util/lock_rank.h"
#include "util/spin_lock.h"
#include "util/thread_annotations.h"

namespace msw::core {

class Reclaimer
{
  public:
    struct Config {
        /** Release physical pages of large quarantined allocations. */
        bool unmapping = true;
        /** Zero-fill quarantined allocations (MarkUs does not zero). */
        bool zeroing = true;
        /** Deferred-unmap queue capacity (overflow skips the unmap). */
        std::size_t max_pending_unmaps = 4096;
        /**
         * Allocation policy supplying the quarantine fill pattern (see
         * alloc/policy.h). Null, or a null fill_free hook, keeps the
         * paper's plain zero-fill.
         */
        const alloc::AllocPolicy* policy = nullptr;
    };

    Reclaimer(const Config& config, alloc::JadeAllocator* jade,
              sweep::PageAccessMap* access_map,
              sweep::ShadowMap* quarantine_bitmap, StatCells* stats);

    Reclaimer(const Reclaimer&) = delete;
    Reclaimer& operator=(const Reclaimer&) = delete;

    /**
     * Free-path policy: build the quarantine entry for a freed block,
     * applying unmapping (immediate or deferred) and zeroing. The caller
     * inserts the returned entry into its quarantine.
     */
    quarantine::Entry quarantine_prepare(void* ptr, std::uintptr_t base,
                                         std::size_t usable, bool is_large);

    /** A scan (mark phase) is starting: decommits defer from here on. */
    void begin_scan();

    /** Drain the deferred-unmap queue mid-scan (after marking: every
        affected entry is still quarantined and already scanned). */
    void drain_pending();

    /** Scan over: stop deferring and drain what queued meanwhile. */
    void end_scan();

    /**
     * Purge every free extent (JadeAllocator::purge_all) unless a scan
     * is active: the marker reads the committed runs it listed when the
     * scan began, so a page decommitted under it faults the sweep.
     * unmap_lock_ is held throughout, so no scan begins meanwhile.
     */
    void purge_all_unless_scanning();

    /** True while a scan holds decommits back (extent hooks consult this
        to treat pages committed mid-scan as dirty). */
    bool
    scan_active() const
    {
        return scan_active_.load(std::memory_order_acquire);
    }

    /** What one release_entries() call handed back. */
    struct ReleaseTally {
        std::uint64_t entries = 0;
        std::uint64_t bytes = 0;
    };

    /**
     * Release proven-safe entries back to the substrate, in @p entries'
     * order. An unmapped entry whose pages really are decommitted (its
     * access-map bit is clear) goes back as it is, decommitted; one whose
     * deferred decommit failed is still committed and goes back like a
     * mapped entry. Mapped entries return through one bin lock per slab
     * (JadeAllocator::free_direct_batch). An entry whose page access
     * cannot be restored under pressure is appended to @p failed: the
     * caller keeps it quarantined and a later sweep retries.
     */
    ReleaseTally release_entries(const quarantine::Entry* entries,
                                 std::size_t n,
                                 std::vector<quarantine::Entry>* failed);

    /** Decommit + unmap-account one entry's pages. */
    [[nodiscard]] bool unmap_entry(std::uintptr_t base, std::size_t usable);

    /** protect_rw with bounded retry; false once attempts are exhausted. */
    [[nodiscard]] bool protect_rw_with_retry(std::uintptr_t base,
                                             std::size_t len);

    /**
     * atfork integration (called by core/lifecycle): fork with
     * unmap_lock_ held so the child inherits a consistent deferred-unmap
     * queue. The controller quiesces sweeps first, so scan_active_ is
     * normally clear; the child resets it regardless (the scanning
     * thread does not exist there) and keeps any queued entries — they
     * drain on the child's next sweep.
     */
    void prepare_fork();
    void parent_after_fork();
    void child_after_fork();

  private:
    void drain_pending_locked() MSW_REQUIRES(unmap_lock_);

    /** Zero (or policy-fill) a quarantined block of @p usable bytes. */
    void fill_free(void* ptr, std::size_t usable);

    /** quarantine_prepare() of a large block under unmapping: decommit
        its pages now, or defer that while a sweep scans. */
    quarantine::Entry prepare_unmapped(void* ptr, std::uintptr_t base,
                                       std::size_t usable);

    Config config_;
    alloc::JadeAllocator* jade_;
    sweep::PageAccessMap* access_map_;
    sweep::ShadowMap* quarantine_bitmap_;
    StatCells* stats_;

    // Deferred page-unmapping while a sweep is scanning (readers must not
    // lose pages mid-scan). Capacity is fixed at construction: a
    // push_back reallocation's free() of the old buffer would re-enter
    // the interposed free() and self-deadlock on this lock in the
    // self-hosted deployment.
    SpinLock unmap_lock_{util::LockRank::kCoreUnmap};
    std::atomic<bool> scan_active_{false};
    std::vector<quarantine::Entry> pending_unmaps_
        MSW_GUARDED_BY(unmap_lock_);
};

}  // namespace msw::core
