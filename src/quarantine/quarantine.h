/**
 * @file
 * The quarantine: freed allocations held until a sweep proves no dangling
 * pointer targets them (paper §3).
 *
 * Structure:
 *  - per-thread buffers absorb free() bursts without lock traffic (paper
 *    contribution (c): "thread-local quarantine buffers to reduce lock
 *    contention"); they spill into the global current epoch;
 *  - the *current epoch* collects entries between sweeps;
 *  - at sweep start the current epoch plus all previously *failed* frees
 *    are locked in; frees arriving during the sweep go to a fresh epoch
 *    and can only be recycled by a future sweep (§4.3);
 *  - entries whose shadow range is marked stay behind as failed frees,
 *    excluded from both sides of the trigger inequality (§3.2).
 */
#pragma once

#include <pthread.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/mutex.h"
#include "util/spin_lock.h"
#include "util/thread_annotations.h"

namespace msw::quarantine {

/**
 * One quarantined allocation.
 *
 * The stored address is XOR-masked: quarantine lists (and the sweeper's
 * locked-in snapshot) may themselves live in scannable memory — in the
 * LD_PRELOAD deployment they are allocated from the protected heap — and
 * a raw address there would look like a dangling pointer and self-pin
 * every quarantined object. Masking keeps the quarantine's own metadata
 * invisible to the conservative scan (the paper instead excludes its
 * metadata ranges from sweeping, §3.2; masking achieves the same
 * exclusion without a range list).
 */
struct Entry {
    /** Masked address; use real_base(), construct with make(). */
    std::uintptr_t masked_base = 0;
    /**
     * The flag shares the size word so an entry stays 16 bytes: a chunk
     * of EntryChunk::kEntries entries then maps exactly four pages.
     */
    std::size_t usable : 63 = 0;
    /** Physical pages released while quarantined (paper §4.2). */
    bool unmapped : 1 = false;

    static constexpr std::uintptr_t kPtrMask = 0xa5a5'5a5a'c3c3'3c3cull;
    static constexpr std::size_t kMaxUsable = ~std::size_t{0} >> 1;

    static Entry
    make(std::uintptr_t base, std::size_t usable, bool unmapped)
    {
        Entry e;
        e.masked_base = base ^ kPtrMask;
        e.usable = usable & kMaxUsable;
        e.unmapped = unmapped;
        return e;
    }

    std::uintptr_t
    real_base() const
    {
        return masked_base ^ kPtrMask;
    }
};
static_assert(sizeof(Entry) == 16, "Entry packs its flag into the size word");

/** Aggregate quarantine statistics. */
struct QuarantineStats {
    std::size_t pending_bytes = 0;    ///< Current epoch (mapped bytes).
    std::size_t failed_bytes = 0;     ///< Failed frees awaiting re-test.
    std::size_t unmapped_bytes = 0;   ///< Unmapped quarantined bytes.
    std::uint64_t entries_added = 0;  ///< Total quarantined frees.
    std::uint64_t chunks_mapped = 0;  ///< Entry chunks ever mmap'd.
};

/**
 * Reorders a locked-in sweep set before it is handed to the sweeper.
 * This is the quarantine's only policy hook: the hardened allocation
 * policy (see alloc/policy.h) uses it to randomize release order so an
 * attacker cannot predict which quarantined object is recycled next
 * (FreeGuard-style delayed-reuse randomization). Kept as a raw function
 * pointer + context so this layer stays free of any dependency on the
 * allocation stack.
 */
using ReleaseOrderFn = void (*)(Entry* entries, std::size_t count,
                                void* ctx);

class Quarantine
{
  public:
    explicit Quarantine(std::size_t tl_buffer_entries = 64,
                        ReleaseOrderFn release_order = nullptr,
                        void* release_order_ctx = nullptr);
    ~Quarantine();

    Quarantine(const Quarantine&) = delete;
    Quarantine& operator=(const Quarantine&) = delete;

    /**
     * Add an allocation to the calling thread's buffer (spilling to the
     * global epoch when full).
     */
    void insert(const Entry& entry);

    /** Spill the calling thread's buffer into the global epoch. */
    void flush_thread_buffer();

    /**
     * Byte size of the current epoch, *excluding* unmapped entries (which
     * do not count towards the sweep threshold, §4.2) and excluding failed
     * frees (§3.2). Includes bytes still sitting in thread buffers.
     */
    std::size_t
    pending_bytes() const
    {
        // msw-relaxed(stat-cells): threshold heuristic read; a stale
        // value only shifts when the next sweep triggers.
        return pending_bytes_.load(std::memory_order_relaxed);
    }

    /** Unmapped bytes currently in quarantine (current + failed). */
    std::size_t
    unmapped_bytes() const
    {
        // msw-relaxed(stat-cells): statistics read; needs no ordering.
        return unmapped_bytes_.load(std::memory_order_relaxed);
    }

    std::size_t
    failed_bytes() const
    {
        // msw-relaxed(stat-cells): statistics read; needs no ordering.
        return failed_bytes_.load(std::memory_order_relaxed);
    }

    /**
     * Lock in the sweep set: moves the current epoch (with the caller's
     * buffer flushed) plus all failed frees into @p out, which is cleared
     * and reserved to the exact count first (callers keep one vector
     * across sweeps, so it stops reallocating once warm). Entries freed
     * after this call land in a fresh epoch. The emptied chunks become
     * spares, capped at the number this lock-in took.
     */
    void lock_in(std::vector<Entry>& out);

    /**
     * Record the failed frees left over from a sweep over the set obtained
     * from lock_in(). Draws its chunks from the spares first.
     */
    void store_failed(std::vector<Entry>&& failed);

    QuarantineStats stats() const;

    /**
     * atfork integration (called by core/lifecycle): fork with the
     * buffer registry and epoch locks held, in rank order (20 -> 22).
     * In the child, every registered thread buffer except the calling
     * thread's belongs to a thread that no longer exists; its entries
     * are *adopted* — flushed into the current epoch — and the buffer
     * unmapped, so quarantined memory is never stranded by a fork. All
     * storage here is mmap-backed, so adoption is safe while the rest
     * of the prepare-held hierarchy is still held.
     */
    void prepare_fork();
    void parent_after_fork();
    void child_after_fork();

  private:
    struct ThreadBuffer;

    /**
     * Internal storage is mmap-chunked, never malloc'd: in the
     * self-hosted (LD_PRELOAD) deployment a std::vector growing under
     * lock_ would free its old buffer through the interposed free(),
     * re-enter insert() and self-deadlock on the non-reentrant spin lock.
     * Emptied chunks are pooled in spare_ rather than unmapped, so a
     * steady load maps (and faults in) no new chunk per sweep.
     */
    struct EntryChunk {
        static constexpr std::size_t kEntries = 1022;
        EntryChunk* next = nullptr;
        std::size_t count = 0;
        Entry entries[kEntries];
    };
    static_assert(sizeof(EntryChunk) <= 16 * 1024,
                  "a chunk fits in four 4 KiB pages");

    ThreadBuffer* get_buffer();
    ThreadBuffer* make_buffer();
    void flush_buffer_locked(ThreadBuffer* buf) MSW_REQUIRES(lock_);
    static void buffer_destructor(void* arg);

    EntryChunk* chunk_alloc();
    static void chunk_free_list(EntryChunk* head);
    /** Pop a spare chunk, emptied, or null when there is none. */
    EntryChunk* take_spare_locked() MSW_REQUIRES(lock_);
    /** Append to a chunk list (caller holds lock_). */
    void append_locked(EntryChunk** head, const Entry& entry)
        MSW_REQUIRES(lock_);

    const std::size_t buffer_capacity_;
    const ReleaseOrderFn release_order_;
    void* const release_order_ctx_;
    pthread_key_t buffer_key_{};

    mutable SpinLock lock_{util::LockRank::kQuarantine};
    EntryChunk* current_ MSW_GUARDED_BY(lock_) = nullptr;
    EntryChunk* failed_ MSW_GUARDED_BY(lock_) = nullptr;
    EntryChunk* spare_ MSW_GUARDED_BY(lock_) = nullptr;

    std::atomic<std::size_t> pending_bytes_{0};
    std::atomic<std::size_t> unmapped_bytes_{0};
    std::atomic<std::size_t> failed_bytes_{0};
    std::atomic<std::uint64_t> entries_added_{0};
    std::atomic<std::uint64_t> chunks_mapped_{0};

    // Global registry of thread buffers so the destructor can orphan
    // buffers of still-running threads. Registry lock ranks *before* the
    // epoch lock: buffer_destructor nests g_buffer_lock -> lock_.
    static SpinLock g_buffer_lock;
    static ThreadBuffer* g_buffer_head MSW_GUARDED_BY(g_buffer_lock);
};

}  // namespace msw::quarantine
