/**
 * @file
 * Slab bins: one bin per size class.
 *
 * A bin owns the slabs of its class. Slabs with at least one free slot sit
 * on the bin's nonfull list; full slabs are tracked only through the page
 * map and rejoin the list when a slot is freed. A slab whose last slot is
 * freed is returned to the extent allocator, except that each bin keeps one
 * empty slab cached to damp extent churn.
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/mutex.h"
#include "util/spin_lock.h"
#include "util/thread_annotations.h"

#include "alloc/extent.h"
#include "alloc/extent_allocator.h"
#include "alloc/size_classes.h"

namespace msw::alloc {

struct AllocPolicy;

class Bin
{
  public:
    Bin() = default;
    Bin(const Bin&) = delete;
    Bin& operator=(const Bin&) = delete;

    /** One-time setup (bins live in arrays, hence not via constructor).
        @p policy selects slot placement (see policy.h); null or a null
        choose_slot hook keeps the built-in first-fit scan. */
    void
    init(ExtentAllocator* extents, unsigned cls, const AllocPolicy* policy)
    {
        extents_ = extents;
        cls_ = cls;
        policy_ = policy;
    }

    /**
     * Pop up to @p n objects of this class into @p out. Returns the number
     * actually produced (always n unless the heap is exhausted).
     */
    unsigned alloc_batch(void** out, unsigned n);

    /**
     * Return one object whose containing slab is @p meta (from a page-map
     * lookup by the caller).
     */
    void free_one(void* ptr, ExtentMeta* meta);

    /**
     * Return @p n objects that all live in slab @p meta, under one lock
     * acquisition. Same slab-list and empty-slab rules as @p n calls to
     * free_one(): a full slab rejoins the nonfull list, an emptied one
     * becomes the cached empty slab or goes back to the extent layer.
     */
    void free_batch(ExtentMeta* meta, void* const* ptrs, std::size_t n);

    // atfork integration (called by JadeAllocator's fork hooks): fork
    // with lock_ held so the child inherits consistent slab lists. The
    // acquire/release pairing straddles fork(), outside what the static
    // analysis can see.
    void prepare_fork() MSW_NO_THREAD_SAFETY_ANALYSIS { lock_.lock(); }
    void after_fork() MSW_NO_THREAD_SAFETY_ANALYSIS { lock_.unlock(); }

  private:
    ExtentMeta* grab_slab_locked() MSW_REQUIRES(lock_);
    /** Slot index of @p ptr within slab @p meta. */
    unsigned slot_of(void* ptr, ExtentMeta* meta) const;
    /** Free @p slot of @p meta; true if the slab was full before. */
    bool clear_slot_locked(ExtentMeta* meta, unsigned slot)
        MSW_REQUIRES(lock_);
    /** Cache or release @p meta if it has no live slots left. */
    void retire_if_empty_locked(ExtentMeta* meta) MSW_REQUIRES(lock_);

    ExtentAllocator* extents_ = nullptr;
    // Rank kBin: nests before the extent lock (grab_slab_locked and
    // free_one call into the extent allocator under lock_).
    SpinLock lock_{util::LockRank::kBin};
    ExtentList nonfull_ MSW_GUARDED_BY(lock_);
    ExtentMeta* cached_empty_ MSW_GUARDED_BY(lock_) = nullptr;
    unsigned cls_ = 0;
    const AllocPolicy* policy_ = nullptr;
};

}  // namespace msw::alloc
