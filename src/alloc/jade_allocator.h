/**
 * @file
 * JadeHeap: the jemalloc-style allocator substrate.
 *
 * This stands in for the paper's minimally-modified jemalloc. It provides
 * the architectural properties MineSweeper depends on:
 *  - contiguous heap reservation (the paper used sbrk-backed extents) so
 *    "is this word a heap pointer" is a single range test;
 *  - out-of-line metadata, immune to heap overwrites;
 *  - size-class slab allocation with per-thread caches;
 *  - an extent-hook API (commit/purge) MineSweeper overrides to implement
 *    decommit/commit page tracking (paper §4.5);
 *  - decay purging of free extents, plus purge_stale() for the
 *    post-sweep purge and purge_all() for the out-of-memory ladder.
 *
 * Thread-safety: fully thread-safe. Each thread gets a thread cache
 * (mmap-backed, no internal malloc) flushed on thread exit.
 */
#pragma once

#include <pthread.h>

#include <cstddef>
#include <cstdint>

#include "alloc/allocator.h"
#include "alloc/bin.h"
#include "alloc/extent_allocator.h"
#include "alloc/size_classes.h"

namespace msw::alloc {

struct AllocPolicy;

class JadeAllocator final : public Allocator
{
  public:
    struct Options {
        /** Virtual address space reserved for the heap. */
        std::size_t heap_bytes = std::size_t{8} << 30;
        /** Free-extent decay before purging (0 = never purge by decay). */
        std::uint64_t decay_ms = 10000;
        /** Number of arenas (bins are replicated per arena). */
        unsigned arenas = 1;
        /** Enable per-thread caches. */
        bool enable_tcache = true;
        /**
         * Allocation policy (slot placement, cache reuse order — see
         * policy.h). Null resolves MSW_POLICY from the environment at
         * construction; instance-scoped, so one process can run
         * allocators under different policies (benchmarks do).
         */
        const AllocPolicy* policy = nullptr;
    };

    JadeAllocator() : JadeAllocator(Options{}) {}
    explicit JadeAllocator(const Options& opts);
    ~JadeAllocator() override;

    JadeAllocator(const JadeAllocator&) = delete;
    JadeAllocator& operator=(const JadeAllocator&) = delete;

    void* alloc(std::size_t size) override;
    void free(void* ptr) override;
    std::size_t usable_size(const void* ptr) const override;
    void* alloc_aligned(std::size_t alignment, std::size_t size) override;
    AllocatorStats stats() const override;
    const char* name() const override { return "jade"; }

    /** Flush the calling thread's cache back to the bins. */
    void flush() override;

    /**
     * Free bypassing the thread cache. The quarantine release path uses
     * this so recycled objects return to the shared bins rather than being
     * stranded in the sweeper thread's cache.
     */
    void free_direct(void* ptr);

    /** Pointers free_direct_batch() groups at a time. */
    static constexpr std::size_t kBatchWindow = 64;

    /**
     * free_direct() for @p n pointers at once, kBatchWindow at a time.
     * Within a window, small objects are grouped by slab in order of
     * first appearance and each group goes back under one bin lock
     * (Bin::free_batch), so a caller-chosen order — the hardened
     * policy's release shuffle — still decides which slab rejoins its
     * bin's list first. The call and live-byte counters update once per
     * window. Windows bound both the scratch (on the stack) and how long
     * a mutator's cache refill can wait behind one bin lock.
     */
    void free_direct_batch(void* const* ptrs, std::size_t n);

    /**
     * Free a large allocation whose pages the caller has already
     * decommitted: the extent rejoins the free lists uncommitted (see
     * ExtentAllocator::free_extent_decommitted) instead of being
     * recommitted only to be purged again.
     */
    void free_decommitted(void* ptr);

    /** True if @p addr lies inside the heap reservation. */
    bool
    contains(std::uintptr_t addr) const
    {
        return extents_.contains(addr);
    }

    const vm::Reservation&
    reservation() const
    {
        return extents_.reservation();
    }

    /** Byte size + base of the allocation containing @p addr, if any. */
    struct AllocationInfo {
        std::uintptr_t base = 0;
        std::size_t usable = 0;
        /** True if the slot/extent is currently allocated. */
        bool live = false;
    };

    /**
     * Conservative interior-pointer lookup: resolves @p addr to the
     * allocation (live or not) containing it. Returns false for addresses
     * in free space or outside the heap. Thread-safe (takes the extent
     * lock); used by the MarkUs marking pass.
     */
    bool lookup_allocation(std::uintptr_t addr, AllocationInfo* out) const;

    /**
     * Lock-free variant of lookup_allocation for concurrent conservative
     * marking. Tolerates races with extent churn by validating the
     * metadata it reads; may return a stale (but range-plausible)
     * allocation, which over-approximates marking — safe, never unsafe.
     */
    bool lookup_relaxed(std::uintptr_t addr, AllocationInfo* out) const;

    /** Access to the extent layer (hook installation, purging). */
    ExtentAllocator& extents() { return extents_; }
    const ExtentAllocator& extents() const { return extents_; }

    /** The resolved allocation policy this instance runs under. */
    const AllocPolicy& policy() const { return *policy_; }

    /** Purge all free extents now (the out-of-memory ladder's purge). */
    void
    purge_all()
    {
        extents_.purge_all();
    }

    /** Purge the free extents the last epoch left unused, and open a new
        epoch (the post-sweep purge; see ExtentAllocator::purge_stale). */
    void
    purge_stale()
    {
        extents_.purge_stale();
    }

    std::size_t
    live_bytes() const
    {
        // msw-relaxed(stat-cells): statistics read; needs no ordering.
        return live_bytes_.load(std::memory_order_relaxed);
    }

    /**
     * atfork integration (called by core/lifecycle): prepare_fork()
     * acquires, in rank order, the process-wide tcache registry lock,
     * every bin lock of every arena, and the extent + metadata-pool
     * locks, so the child forks with the whole substrate consistent.
     * parent_after_fork()/child_after_fork() release them.
     * child_fixup() then adopts the thread caches of threads that did
     * not survive the fork — flushing their objects back to the shared
     * bins and releasing the cache storage — and must only run once
     * every prepare-held lock is released (flushing re-acquires bin and
     * extent locks).
     */
    void prepare_fork();
    void parent_after_fork();
    void child_after_fork();
    void child_fixup();

  private:
    struct TCache;
    struct Arena;

    TCache* get_tcache();
    TCache* make_tcache();
    void flush_shard(TCache* tc, unsigned cls, unsigned keep);
    void free_large(ExtentMeta* meta);
    void free_direct_window(void* const* ptrs, std::size_t n);
    Bin& bin_for(std::uint8_t arena, unsigned cls) const;
    unsigned arena_for_thread();
    static void tcache_destructor(void* arg);

    void* alloc_large(std::size_t size, std::size_t align_pages);

    /**
     * Head of the global registry of live thread caches. Guarded by the
     * file-local g_tcache_registry_lock (rank kBinRegistry) in the .cc —
     * not annotatable from here because the lock is not visible.
     */
    static TCache* g_tcache_head;

    ExtentAllocator extents_;
    Options opts_;
    /** Resolved from opts_.policy / MSW_POLICY; never null. */
    const AllocPolicy* policy_;
    unsigned num_classes_;
    Arena* arenas_ = nullptr;  // [opts_.arenas], internally allocated
    pthread_key_t tcache_key_{};
    std::atomic<unsigned> next_arena_{0};

    // Written on every alloc/free, by mutators and by the sweep's
    // release: a cache line of their own (the class is 64-aligned, so
    // tail padding keeps it so). Sharing it with the read-mostly fields
    // above, or with what the owner lays out next (a runtime's mark map,
    // read on every scanned word), costs allocations coherence misses:
    // an 8-byte layout shift that did so raised perfbench graph's alloc
    // p50 from ~90 to ~150 ns on a 4-vCPU Xeon VM.
    alignas(64) std::atomic<std::size_t> live_bytes_{0};
    std::atomic<std::uint64_t> alloc_calls_{0};
    std::atomic<std::uint64_t> free_calls_{0};
};

}  // namespace msw::alloc
