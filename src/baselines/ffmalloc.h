/**
 * @file
 * FFMalloc baseline (Wickman et al., USENIX Security 2021) — the one-time
 * allocation scheme the paper compares against.
 *
 * FFMalloc prevents use-after-reallocate by *never reusing virtual
 * addresses*: allocation bumps monotonically through a huge reservation,
 * and when every object on a physical page has been freed the page is
 * decommitted (its VA stays retired forever). Dangling pointers therefore
 * never alias a new allocation; they hit either unmapped memory (fault) or
 * stale dead bytes.
 *
 * This reproduces FFMalloc's characteristic trade-off: almost-zero CPU
 * overhead but pathological memory behaviour whenever long-lived objects
 * pepper mostly-dead pages — physical pages are pinned by a single
 * survivor and RSS grows monotonically (paper Fig 8, §5.2).
 *
 * Structure:
 *  - small classes (reusing JadeHeap's class table) are bump-allocated
 *    from per-class 64 KiB pools, never revisited once full;
 *  - large allocations take page-multiple spans directly;
 *  - a per-page state word (live-object count + sealed bit) and a
 *    per-page info word (class or large span geometry) support free()
 *    and usable_size();
 *  - a page is decommitted when its live count drops to zero and the
 *    bump pointer has moved past it (it is "sealed").
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "alloc/size_classes.h"
#include "core/runtime_base.h"
#include "util/lock_rank.h"
#include "util/spin_lock.h"
#include "util/thread_annotations.h"
#include "vm/vm.h"

namespace msw::baseline {

class FFMalloc final : public core::RuntimeBase
{
  public:
    struct Options {
        /** Virtual address space to burn through (never reused). */
        std::size_t va_bytes = std::size_t{32} << 30;
    };

    FFMalloc() : FFMalloc(Options{}) {}
    explicit FFMalloc(const Options& opts);
    ~FFMalloc() override;

    FFMalloc(const FFMalloc&) = delete;
    FFMalloc& operator=(const FFMalloc&) = delete;

    void* alloc(std::size_t size) override;
    void free(void* ptr) override;
    std::size_t usable_size(const void* ptr) const override;
    void* alloc_aligned(std::size_t alignment, std::size_t size) override;
    alloc::AllocatorStats stats() const override;
    const char* name() const override { return "ffmalloc"; }

    /** True if @p addr lies inside the reservation. */
    bool
    contains(std::uintptr_t addr) const
    {
        return space_.contains(addr);
    }

    /** Bytes of VA consumed so far (monotonic). */
    std::size_t frontier_bytes() const;

  private:
    /** Per-class bump pool. */
    struct Pool {
        // Rank kBin (the per-class analogue of a slab bin); refill nests
        // into frontier_lock_ (kExtent).
        SpinLock lock{util::LockRank::kBin};
        std::uintptr_t bump MSW_GUARDED_BY(lock) = 0;
        std::uintptr_t end MSW_GUARDED_BY(lock) = 0;
    };

    static constexpr std::size_t kPoolBytes = 64 * 1024;

    // Per-page info word encoding.
    static constexpr std::uint32_t kPageFree = 0;
    static constexpr std::uint32_t kLargeStart = 0x8000'0000u;
    static constexpr std::uint32_t kLargeInterior = 0xc000'0000u;
    // Small pages store (class index + 1).

    std::size_t
    page_index(std::uintptr_t addr) const
    {
        return (addr - space_.base()) >> vm::kPageShift;
    }

    /** Returns 0 on VA exhaustion or transient commit failure. */
    std::uintptr_t grab_span(std::size_t bytes, std::size_t align_bytes);
    /** A page-granular span of its own for @p size bytes (alloc() above
        kMaxSmallSize, and every over-granule alloc_aligned()). */
    void* alloc_large(std::size_t size, std::size_t align_bytes);
    /**
     * Caller holds pools_[cls].lock — not expressible to the analysis
     * through the index/reference aliasing, hence the opt-out.
     */
    [[nodiscard]] bool refill_pool(unsigned cls)
        MSW_NO_THREAD_SAFETY_ANALYSIS;
    void decommit_page(std::uintptr_t page_addr);
    void seal_and_maybe_decommit(std::uintptr_t page_addr);
    void on_object_freed(std::uintptr_t base, std::size_t usable);

    vm::Reservation space_;
    vm::Reservation info_space_;
    vm::Reservation live_space_;

    /** Per-page info word (see encoding above). */
    std::uint32_t* page_info_ = nullptr;
    /**
     * Per small-object page: the count of live objects overlapping it,
     * plus kSealed once the bump pointer has passed it (no new object
     * will land). One word, so the seal and the last free agree on who
     * decommits.
     */
    std::atomic<std::uint16_t>* page_state_ = nullptr;

    // Rank kExtent: the frontier is FFMalloc's extent layer.
    mutable SpinLock frontier_lock_{util::LockRank::kExtent};
    std::uintptr_t frontier_ MSW_GUARDED_BY(frontier_lock_) = 0;

    Pool* pools_ = nullptr;  // [num_size_classes()]
    unsigned num_classes_;

    // Counters (including the live/committed gauges, via add/sub) live in
    // RuntimeBase's sharded StatCells.
};

}  // namespace msw::baseline
