/**
 * @file
 * The extent allocator: manages the heap reservation at page granularity.
 *
 * Responsibilities:
 *  - hand out page-aligned extents (for slabs and large allocations),
 *    reusing free extents (first-fit within size-bucketed free lists,
 *    splitting oversized ones) before extending the bump frontier;
 *  - coalesce freed extents with free neighbours;
 *  - maintain the page map (page index -> ExtentMeta*) used for interior
 *    pointer lookup;
 *  - decay-purge free extents through the ExtentHooks (jemalloc's ~10 s
 *    decay, which MineSweeper retargets to a purge after every sweep,
 *    paper §4.5, of what a whole epoch left unused: purge_stale()).
 *
 * All free-list state is intrusive (inside ExtentMeta), so this layer
 * performs no internal malloc — a requirement for the LD_PRELOAD shim.
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/mutex.h"
#include "util/spin_lock.h"
#include "util/thread_annotations.h"
#include "vm/vm.h"

#include "alloc/extent.h"
#include "alloc/hooks.h"

namespace msw::alloc {

/** Aggregate extent-allocator statistics (bytes). */
struct ExtentStats {
    std::size_t committed_bytes = 0;  ///< Pages with physical backing.
    std::size_t active_bytes = 0;     ///< Pages inside live extents.
    std::size_t mapped_frontier = 0;  ///< High-water of the bump pointer.
    std::size_t metadata_bytes = 0;   ///< Out-of-line metadata committed.
    std::uint64_t purges = 0;         ///< purge() hook invocations.
};

class ExtentAllocator
{
  public:
    /**
     * @param heap_bytes      Virtual address space to reserve for the heap.
     * @param decay_ms        Age after which free extents are purged
     *                        (0 disables decay purging).
     */
    explicit ExtentAllocator(std::size_t heap_bytes,
                             std::uint64_t decay_ms = 10000);
    ~ExtentAllocator();

    ExtentAllocator(const ExtentAllocator&) = delete;
    ExtentAllocator& operator=(const ExtentAllocator&) = delete;

    /**
     * Install custom hooks (must outlive the allocator). Call before any
     * allocation. Returns the previously installed hooks.
     */
    ExtentHooks* set_hooks(ExtentHooks* hooks);

    /**
     * Allocate an extent of exactly @p pages pages, committed and
     * registered in the page map. @p kind must be kSlab or kLarge; the
     * caller fills in kind-specific fields. If @p align_pages > 1 the
     * extent base is aligned to that many pages.
     *
     * Returns nullptr when the heap reservation is exhausted or the
     * commit hook fails under memory pressure; callers propagate the
     * failure up to alloc() (which retries / reclaims before giving up).
     */
    ExtentMeta* alloc_extent(std::size_t pages, ExtentKind kind,
                             std::size_t align_pages = 1);

    /** Return an extent; coalesces with free neighbours. */
    void free_extent(ExtentMeta* e);

    /**
     * Return an extent whose pages the caller has already decommitted
     * (discarded and inaccessible, as the purge hook leaves them). It
     * rejoins the free lists uncommitted: committed bytes drop by its
     * size, it coalesces with uncommitted neighbours, no purge has
     * anything left to do for it, and reuse commits it through the
     * commit hook.
     */
    void free_extent_decommitted(ExtentMeta* e);

    /**
     * Lock-free lookup for addresses the caller *knows* are inside a live
     * allocation (the page-map entry for an extent holding a live object
     * cannot change concurrently). Used on the free() fast path.
     */
    ExtentMeta*
    lookup_live(std::uintptr_t addr) const
    {
        MSW_DCHECK(heap_.contains(addr));
        // msw-relaxed(page-map): the entry under a live object cannot
        // change concurrently (see contract above).
        ExtentMeta* e = __atomic_load_n(&page_map_[page_index(addr)],
                                        __ATOMIC_RELAXED);
        MSW_DCHECK(e != nullptr && e->kind != ExtentKind::kFree);
        return e;
    }

    /**
     * Raw racy page-map read (no validation at all). Callers must treat
     * every field of the result as untrusted; see
     * JadeAllocator::lookup_relaxed.
     */
    ExtentMeta*
    peek_page_map(std::uintptr_t addr) const
    {
        MSW_DCHECK(heap_.contains(addr));
        // msw-relaxed(page-map): deliberately racy; every field of
        // the result is untrusted per the contract above.
        return __atomic_load_n(&page_map_[page_index(addr)],
                               __ATOMIC_RELAXED);
    }

    /** True if @p addr lies within the heap reservation. */
    bool
    contains(std::uintptr_t addr) const
    {
        return heap_.contains(addr);
    }

    const vm::Reservation& reservation() const { return heap_; }

    /** Out-of-line metadata regions (for scan exclusion lists). */
    const vm::Reservation& meta_reservation() const
    {
        return meta_pool_.reservation();
    }
    const vm::Reservation& page_map_reservation() const
    {
        return page_map_space_;
    }

    /** Purge free extents older than the decay deadline. */
    void decay_tick();

    /** Purge every committed free extent immediately (the out-of-memory
        ladder's purge). */
    void purge_all();

    /**
     * Purge every committed free extent that was already free at the
     * previous purge_stale() call, then open a new purge epoch (the
     * post-sweep purge). Extents freed since that call stay committed
     * for one epoch, so a slab a sweep empties is not decommitted only
     * for the mutator to recommit it; the next call purges it if it is
     * still unused. Committed free bytes that survive a call are thus
     * bounded by the bytes freed in the epoch it closes.
     */
    void purge_stale();

    ExtentStats stats() const;

    // atfork integration (called by JadeAllocator's fork hooks): fork
    // with the extent lock and the metadata-pool lock held, in rank
    // order (kExtent -> kExtentMeta). The pairing straddles fork(),
    // outside what the static analysis can see.
    void
    prepare_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
    {
        lock_.lock();
        meta_pool_.prepare_fork();
    }
    void
    after_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
    {
        meta_pool_.after_fork();
        lock_.unlock();
    }

  private:
    // Free-list buckets: exact-size buckets for 1..kExactBuckets pages,
    // then one bucket per power of two.
    static constexpr unsigned kExactBuckets = 64;
    static constexpr unsigned kNumBuckets = kExactBuckets + 24;

    static unsigned bucket_for(std::size_t pages);

    // All private helpers expect lock_ held.
    ExtentMeta* take_free_extent(std::size_t pages, std::size_t align_pages)
        MSW_REQUIRES(lock_);
    /** Stamp @p e freed now and in the current epoch, then link it. */
    void insert_free(ExtentMeta* e) MSW_REQUIRES(lock_);
    /** Split @p pages pages at @p base off free extent @p from as a new
        free extent with @p from's committed state and age. */
    void split_free(const ExtentMeta* from, std::uintptr_t base,
                    std::size_t pages) MSW_REQUIRES(lock_);
    /** Put free extent @p e on its bucket and mark its boundary pages. */
    void link_free(ExtentMeta* e) MSW_REQUIRES(lock_);
    void remove_free(ExtentMeta* e) MSW_REQUIRES(lock_);
    void map_extent(ExtentMeta* e) MSW_REQUIRES(lock_);
    void unmap_extent_range(ExtentMeta* e) MSW_REQUIRES(lock_);
    void mark_free_boundaries(ExtentMeta* e) MSW_REQUIRES(lock_);
    void free_extent_locked(ExtentMeta* e) MSW_REQUIRES(lock_);
    [[nodiscard]] bool ensure_committed(ExtentMeta* e) MSW_REQUIRES(lock_);
    [[nodiscard]] bool purge_extent(ExtentMeta* e) MSW_REQUIRES(lock_);
    /** Purge each committed free extent for which @p stale(e) holds,
        merging it with purged free neighbours. */
    template <typename Stale>
    void decay_pass_locked(Stale stale) MSW_REQUIRES(lock_);

    std::size_t page_index(std::uintptr_t addr) const;

    vm::Reservation heap_;
    MetaPool meta_pool_;
    ExtentHooks default_hooks_;
    ExtentHooks* hooks_ MSW_GUARDED_BY(lock_);

    // Rank kExtent: acquired under bin locks; nests before the metadata
    // pool lock (MetaPool::alloc runs under lock_).
    mutable SpinLock lock_{util::LockRank::kExtent};
    ExtentList free_buckets_[kNumBuckets] MSW_GUARDED_BY(lock_);
    // page_map_ entries are written under lock_ but read lock-free via
    // __atomic loads (lookup_live / peek_page_map), so the pointer array
    // itself is deliberately not guarded.
    ExtentMeta** page_map_ = nullptr;  // One entry per heap page.
    vm::Reservation page_map_space_;
    std::uintptr_t bump_ MSW_GUARDED_BY(lock_) = 0;
    std::size_t frontier_pages_ MSW_GUARDED_BY(lock_) = 0;

    std::uint64_t decay_ms_;
    std::uint64_t last_decay_check_ms_ MSW_GUARDED_BY(lock_) = 0;
    /** Opened by each purge_stale(); stamped on every freed extent. */
    std::uint64_t purge_epoch_ MSW_GUARDED_BY(lock_) = 0;

    std::size_t committed_bytes_ MSW_GUARDED_BY(lock_) = 0;
    std::size_t active_bytes_ MSW_GUARDED_BY(lock_) = 0;
    std::uint64_t purge_count_ MSW_GUARDED_BY(lock_) = 0;
};

}  // namespace msw::alloc
