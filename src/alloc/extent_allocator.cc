#include "alloc/extent_allocator.h"

#include <atomic>

#include "util/bits.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/failpoint.h"
#include "util/log.h"

namespace msw::alloc {

namespace {

/**
 * Whether free extent @p neighbour may coalesce with free extent @p e.
 * Mixed committed states are left unmerged: committing a purged
 * neighbour would make sweeps fault its pages back in, and purging a hot
 * committed extent would defeat decay. Committed extents merge only
 * within one purge epoch, so a fresh free never lends its age to an
 * older neighbour that purge_stale() is due to purge.
 */
bool
coalescible(const ExtentMeta* neighbour, const ExtentMeta* e)
{
    return neighbour != nullptr && neighbour->kind == ExtentKind::kFree &&
           neighbour->committed == e->committed &&
           (!e->committed || neighbour->freed_in_epoch == e->freed_in_epoch);
}

}  // namespace

ExtentAllocator::ExtentAllocator(std::size_t heap_bytes,
                                 std::uint64_t decay_ms)
    : heap_(vm::Reservation::reserve(heap_bytes)),
      // Worst case is one metadata record per heap page (~heap/32 bytes);
      // reserve heap/16 of VA — committed only as used.
      meta_pool_(heap_bytes / 16),
      default_hooks_(&heap_),
      hooks_(&default_hooks_),
      decay_ms_(decay_ms)
{
    const std::size_t heap_pages = heap_.size() >> vm::kPageShift;
    page_map_space_ =
        vm::Reservation::reserve(heap_pages * sizeof(ExtentMeta*));
    page_map_space_.commit_must(page_map_space_.base(),
                                page_map_space_.size());
    page_map_ = to_ptr_of<ExtentMeta*>(page_map_space_.base());
    bump_ = heap_.base();
}

ExtentAllocator::~ExtentAllocator() = default;

ExtentHooks*
ExtentAllocator::set_hooks(ExtentHooks* hooks)
{
    LockGuard g(lock_);
    ExtentHooks* old = hooks_;
    hooks_ = hooks != nullptr ? hooks : &default_hooks_;
    return old;
}

unsigned
ExtentAllocator::bucket_for(std::size_t pages)
{
    MSW_DCHECK(pages >= 1);
    if (pages <= kExactBuckets)
        return static_cast<unsigned>(pages - 1);
    const unsigned lg = log2_floor(pages);  // >= 6
    const unsigned idx = kExactBuckets + (lg - 6);
    return idx < kNumBuckets ? idx : kNumBuckets - 1;
}

std::size_t
ExtentAllocator::page_index(std::uintptr_t addr) const
{
    MSW_DCHECK(heap_.contains(addr));
    return (addr - heap_.base()) >> vm::kPageShift;
}

void
ExtentAllocator::map_extent(ExtentMeta* e)
{
    const std::size_t first = page_index(e->base);
    for (std::size_t i = 0; i < e->pages; ++i)
        // msw-relaxed(page-map): written under the extent lock; racy
        // readers (peek_page_map) treat the result as untrusted.
        __atomic_store_n(&page_map_[first + i], e, __ATOMIC_RELAXED);
}

void
ExtentAllocator::unmap_extent_range(ExtentMeta* e)
{
    const std::size_t first = page_index(e->base);
    for (std::size_t i = 0; i < e->pages; ++i)
        // msw-relaxed(page-map): written under the extent lock; racy
        // readers (peek_page_map) treat the result as untrusted.
        __atomic_store_n(&page_map_[first + i],
                         static_cast<ExtentMeta*>(nullptr),
                         __ATOMIC_RELAXED);
}

void
ExtentAllocator::mark_free_boundaries(ExtentMeta* e)
{
    const std::size_t first = page_index(e->base);
    // msw-relaxed(page-map): written under the extent lock; racy
    // readers (peek_page_map) treat the result as untrusted.
    __atomic_store_n(&page_map_[first], e, __ATOMIC_RELAXED);
    __atomic_store_n(&page_map_[first + e->pages - 1], e, __ATOMIC_RELAXED);
}

void
ExtentAllocator::insert_free(ExtentMeta* e)
{
    // Only decay reads the clock stamp; the post-sweep purge reads the
    // epoch.
    if (decay_ms_ != 0)
        e->freed_at_ms = util::monotonic_ns() / 1000000;
    e->freed_in_epoch = purge_epoch_;
    link_free(e);
}

void
ExtentAllocator::split_free(const ExtentMeta* from, std::uintptr_t base,
                            std::size_t pages)
{
    ExtentMeta* piece = meta_pool_.alloc();
    piece->set_base(base);
    piece->set_pages(pages);
    // committed_bytes_ is unchanged by splits: both pieces inherit the
    // committed state, and the age, so a split never resets decay.
    piece->committed = from->committed;
    piece->freed_at_ms = from->freed_at_ms;
    piece->freed_in_epoch = from->freed_in_epoch;
    link_free(piece);
}

void
ExtentAllocator::link_free(ExtentMeta* e)
{
    e->set_kind(ExtentKind::kFree);
    free_buckets_[bucket_for(e->pages)].push_front(e);
    mark_free_boundaries(e);
}

void
ExtentAllocator::remove_free(ExtentMeta* e)
{
    free_buckets_[bucket_for(e->pages)].remove(e);
}

bool
ExtentAllocator::ensure_committed(ExtentMeta* e)
{
    if (!e->committed) {
        if (!hooks_->commit(e->base, e->bytes())) {
            return false;
        }
        e->committed = true;
        committed_bytes_ += e->bytes();
    }
    return true;
}

bool
ExtentAllocator::purge_extent(ExtentMeta* e)
{
    MSW_DCHECK(e->kind == ExtentKind::kFree && e->committed);
    if (!hooks_->purge(e->base, e->bytes())) {
        // Purge failed under pressure: keep the pages accounted as
        // committed (they still have backing) and let the next decay
        // pass retry.
        return false;
    }
    e->committed = false;
    MSW_DCHECK(committed_bytes_ >= e->bytes());
    committed_bytes_ -= e->bytes();
    ++purge_count_;
    return true;
}

ExtentMeta*
ExtentAllocator::take_free_extent(std::size_t pages, std::size_t align_pages)
{
    const std::size_t align_bytes = align_pages << vm::kPageShift;
    const std::size_t want_bytes = pages << vm::kPageShift;
    for (unsigned b = bucket_for(pages); b < kNumBuckets; ++b) {
        for (ExtentMeta* e = free_buckets_[b].head(); e != nullptr;
             e = e->next) {
            const std::uintptr_t aligned =
                align_up(e->base, align_bytes);
            if (aligned + want_bytes > e->end())
                continue;
            // Found a fit: remove, then split off leading/trailing slack.
            free_buckets_[b].remove(e);
            unmap_extent_range(e);
            if (aligned > e->base) {
                const std::size_t head = (aligned - e->base) >> vm::kPageShift;
                split_free(e, e->base, head);
                e->set_base(aligned);
                e->set_pages(e->pages - head);
            }
            if (e->pages > pages) {
                split_free(e, e->base + want_bytes, e->pages - pages);
                e->set_pages(pages);
            }
            return e;
        }
    }
    return nullptr;
}

ExtentMeta*
ExtentAllocator::alloc_extent(std::size_t pages, ExtentKind kind,
                              std::size_t align_pages)
{
    MSW_CHECK(pages >= 1);
    MSW_CHECK(kind != ExtentKind::kFree);
    MSW_DCHECK(is_pow2(align_pages));

    LockGuard g(lock_);
    ExtentMeta* e = take_free_extent(pages, align_pages);
    if (e == nullptr) {
        // Extend the bump frontier.
        const std::size_t align_bytes = align_pages << vm::kPageShift;
        const std::uintptr_t aligned = align_up(bump_, align_bytes);
        const std::size_t want_bytes = pages << vm::kPageShift;
        if (util::failpoint_should_fail(util::Failpoint::kExtentGrow) ||
            aligned + want_bytes > heap_.end()) {
            // VA exhaustion is survivable: a sweep may return quarantined
            // extents to the free lists. Report once, then fail the
            // request so alloc() can reclaim and retry.
            static std::atomic<bool> logged{false};
            // msw-relaxed(config-flag): log-once latch; only RMW
            // atomicity matters.
            if (!logged.exchange(true, std::memory_order_relaxed)) {
                MSW_LOG_WARN(
                    "heap reservation exhausted (%zu MiB): cannot "
                    "allocate %zu pages",
                    heap_.size() >> 20, pages);
            }
            return nullptr;
        }
        if (aligned > bump_) {
            // Turn the alignment gap into a free extent so it is reusable.
            ExtentMeta* gap = meta_pool_.alloc();
            gap->set_base(bump_);
            gap->set_pages((aligned - bump_) >> vm::kPageShift);
            gap->committed = false;
            insert_free(gap);
        }
        e = meta_pool_.alloc();
        e->set_base(aligned);
        e->set_pages(pages);
        e->committed = false;
        bump_ = aligned + want_bytes;
        frontier_pages_ = (bump_ - heap_.base()) >> vm::kPageShift;
    }
    e->set_kind(kind);
    e->prev = nullptr;
    e->next = nullptr;
    e->used_slots = 0;
    e->large_size = 0;
    if (!ensure_committed(e)) {
        // Commit failed under pressure: hand the extent back to the free
        // lists (still uncommitted) and fail the request.
        insert_free(e);
        return nullptr;
    }
    map_extent(e);
    active_bytes_ += e->bytes();
    return e;
}

void
ExtentAllocator::free_extent(ExtentMeta* e)
{
    LockGuard g(lock_);
    free_extent_locked(e);
}

void
ExtentAllocator::free_extent_decommitted(ExtentMeta* e)
{
    LockGuard g(lock_);
    if (e->committed) {
        e->committed = false;
        MSW_DCHECK(committed_bytes_ >= e->bytes());
        committed_bytes_ -= e->bytes();
    }
    free_extent_locked(e);
}

void
ExtentAllocator::free_extent_locked(ExtentMeta* e)
{
    MSW_DCHECK(e->kind != ExtentKind::kFree);
    MSW_DCHECK(active_bytes_ >= e->bytes());
    active_bytes_ -= e->bytes();
    unmap_extent_range(e);
    e->set_kind(ExtentKind::kFree);

    // Coalesce with the free neighbours coalescible() allows (it compares
    // epochs, so stamp e's first); the purge pass merges the others once
    // they are purged.
    e->freed_in_epoch = purge_epoch_;
    const std::size_t first = page_index(e->base);
    if (first > 0) {
        ExtentMeta* left = page_map_[first - 1];
        if (coalescible(left, e)) {
            remove_free(left);
            unmap_extent_range(left);  // clears its two boundary entries
            e->set_base(left->base);
            e->set_pages(e->pages + left->pages);
            meta_pool_.free(left);
        }
    }
    const std::size_t last_next = page_index(e->base) + e->pages;
    if (last_next < frontier_pages_) {
        ExtentMeta* right = page_map_[last_next];
        if (coalescible(right, e)) {
            remove_free(right);
            unmap_extent_range(right);
            e->set_pages(e->pages + right->pages);
            meta_pool_.free(right);
        }
    }
    insert_free(e);

    if (decay_ms_ != 0) {
        const std::uint64_t now = util::monotonic_ns() / 1000000;
        if (now - last_decay_check_ms_ >= 250) {
            last_decay_check_ms_ = now;
            decay_pass_locked([&](const ExtentMeta* f) {
                return now - f->freed_at_ms >= decay_ms_;
            });
        }
    }
}

void
ExtentAllocator::decay_tick()
{
    LockGuard g(lock_);
    const std::uint64_t now = util::monotonic_ns() / 1000000;
    decay_pass_locked([&](const ExtentMeta* e) {
        return now - e->freed_at_ms >= decay_ms_;
    });
}

void
ExtentAllocator::purge_all()
{
    LockGuard g(lock_);
    decay_pass_locked([](const ExtentMeta*) { return true; });
}

void
ExtentAllocator::purge_stale()
{
    LockGuard g(lock_);
    const std::uint64_t epoch = purge_epoch_;
    decay_pass_locked(
        [epoch](const ExtentMeta* e) { return e->freed_in_epoch != epoch; });
    ++purge_epoch_;
}

template <typename Stale>
void
ExtentAllocator::decay_pass_locked(Stale stale)
{
    // Purge the stale committed free extents, merging each purged one
    // with purged neighbours as we go. A failed purge leaves the extent
    // committed and unmerged for the next pass to retry.
    for (unsigned b = 0; b < kNumBuckets; ++b) {
        ExtentMeta* e = free_buckets_[b].head();
        while (e != nullptr) {
            ExtentMeta* next = e->next;
            if (e->committed && stale(e) && purge_extent(e)) {
                const std::size_t first = page_index(e->base);
                if (first > 0) {
                    ExtentMeta* left = page_map_[first - 1];
                    if (left != e && coalescible(left, e)) {
                        if (next == left)
                            next = left->next;
                        remove_free(left);
                        remove_free(e);
                        unmap_extent_range(left);
                        unmap_extent_range(e);
                        e->set_base(left->base);
                        e->set_pages(e->pages + left->pages);
                        meta_pool_.free(left);
                        link_free(e);
                    }
                }
                const std::size_t after = page_index(e->base) + e->pages;
                if (after < frontier_pages_) {
                    ExtentMeta* right = page_map_[after];
                    if (right != e && coalescible(right, e)) {
                        if (next == right)
                            next = right->next;
                        remove_free(right);
                        remove_free(e);
                        unmap_extent_range(right);
                        unmap_extent_range(e);
                        e->set_pages(e->pages + right->pages);
                        meta_pool_.free(right);
                        link_free(e);
                    }
                }
            }
            e = next;
        }
    }
}

ExtentStats
ExtentAllocator::stats() const
{
    LockGuard g(lock_);
    ExtentStats s;
    s.committed_bytes = committed_bytes_;
    s.active_bytes = active_bytes_;
    s.mapped_frontier = bump_ - heap_.base();
    s.metadata_bytes =
        meta_pool_.committed_bytes() + page_map_space_.size();
    s.purges = purge_count_;
    return s;
}

}  // namespace msw::alloc
