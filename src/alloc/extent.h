/**
 * @file
 * Extent metadata and its out-of-line pool.
 *
 * An extent is a contiguous, page-aligned run of pages inside the heap
 * reservation. Every active extent is either a slab (carved into equal
 * small objects of one size class) or a single large allocation; inactive
 * ranges are free extents held on the extent allocator's free lists.
 *
 * Metadata is stored *out of line* in a dedicated reservation, never inside
 * the heap pages themselves. This mirrors jemalloc and is load-bearing for
 * security: a heap overflow or use-after-free write cannot corrupt
 * allocator metadata (paper §2 footnote 2, §6.6).
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/bits.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/spin_lock.h"
#include "util/thread_annotations.h"
#include "vm/vm.h"

#include "alloc/size_classes.h"

namespace msw::alloc {

enum class ExtentKind : std::uint8_t {
    kFree = 0,   ///< On a free list, contents dead.
    kSlab = 1,   ///< Carved into slab_slots(cls) objects of class cls.
    kLarge = 2,  ///< One allocation spanning the whole extent.
};

/**
 * Out-of-line descriptor for one extent. Intrusively linkable into exactly
 * one list at a time (a bin's slab list or a free-list bucket).
 */
struct ExtentMeta {
    std::uintptr_t base = 0;
    std::size_t pages = 0;

    ExtentMeta* prev = nullptr;
    ExtentMeta* next = nullptr;

    /** For kFree extents: when the extent was freed (ms, monotonic). */
    std::uint64_t freed_at_ms = 0;
    /** For kFree extents: the purge epoch it was freed in (see
        ExtentAllocator::purge_stale). */
    std::uint64_t freed_in_epoch = 0;

    /** Requested byte size for kLarge (<= pages * kPageSize). */
    std::size_t large_size = 0;

    ExtentKind kind = ExtentKind::kFree;
    /** Physical/access state: true once commit() has been issued. */
    bool committed = false;
    /** Owning arena index (kSlab extents). */
    std::uint8_t arena = 0;
    /** Size class for kSlab extents. */
    std::uint16_t cls = 0;
    /** Allocated-slot count for kSlab. */
    std::uint16_t used_slots = 0;

    /** Slot allocation bitmap for kSlab (bit set = slot allocated). */
    std::uint64_t slot_bits[kMaxSlabSlots / 64] = {};

    std::size_t
    bytes() const
    {
        return pages * vm::kPageSize;
    }

    std::uintptr_t
    end() const
    {
        return base + bytes();
    }

    bool
    slot_allocated(unsigned slot) const
    {
        return (slot_bits[slot / 64] >> (slot % 64)) & 1u;
    }

    void
    set_slot(unsigned slot)
    {
        slot_bits[slot / 64] |= std::uint64_t{1} << (slot % 64);
    }

    void
    clear_slot(unsigned slot)
    {
        slot_bits[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    }
};

/**
 * Doubly-linked intrusive list of extents (bin slab lists, free buckets).
 * Not thread-safe; callers hold the owning lock.
 */
class ExtentList
{
  public:
    bool empty() const { return head_ == nullptr; }
    ExtentMeta* head() const { return head_; }

    void
    push_front(ExtentMeta* e)
    {
        MSW_DCHECK(e->prev == nullptr && e->next == nullptr);
        e->next = head_;
        if (head_ != nullptr)
            head_->prev = e;
        head_ = e;
    }

    void
    remove(ExtentMeta* e)
    {
        if (e->prev != nullptr)
            e->prev->next = e->next;
        else {
            MSW_DCHECK(head_ == e);
            head_ = e->next;
        }
        if (e->next != nullptr)
            e->next->prev = e->prev;
        e->prev = nullptr;
        e->next = nullptr;
    }

  private:
    ExtentMeta* head_ = nullptr;
};

/**
 * Bump-plus-freelist pool for ExtentMeta records, carved from its own
 * reservation so metadata never shares pages with user data. Thread-safe.
 */
class MetaPool
{
  public:
    /** @param capacity_bytes Reserved VA for metadata (committed on demand). */
    explicit MetaPool(std::size_t capacity_bytes);

    MetaPool(const MetaPool&) = delete;
    MetaPool& operator=(const MetaPool&) = delete;

    /** Allocate a zero-initialised record. */
    ExtentMeta* alloc();

    /** Return a record to the pool. */
    void free(ExtentMeta* meta);

    /** Bytes of metadata currently committed. */
    std::size_t
    committed_bytes() const
    {
        LockGuard g(lock_);
        return committed_;
    }

    /** The metadata reservation (excluded from conservative scans). */
    const vm::Reservation& reservation() const { return space_; }

    // atfork integration (via ExtentAllocator): fork with lock_ held so
    // the child inherits a consistent bump/free-list state. The pairing
    // straddles fork(), outside what the static analysis can see.
    void prepare_fork() MSW_NO_THREAD_SAFETY_ANALYSIS { lock_.lock(); }
    void after_fork() MSW_NO_THREAD_SAFETY_ANALYSIS { lock_.unlock(); }

  private:
    vm::Reservation space_;
    // Rank kExtentMeta: MetaPool::alloc/free run under the extent lock.
    mutable SpinLock lock_{util::LockRank::kExtentMeta};
    std::uintptr_t bump_ MSW_GUARDED_BY(lock_) = 0;
    std::size_t committed_ MSW_GUARDED_BY(lock_) = 0;
    ExtentMeta* free_list_ MSW_GUARDED_BY(lock_) = nullptr;
};

}  // namespace msw::alloc
