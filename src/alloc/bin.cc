#include "alloc/bin.h"

#include <bit>

#include "alloc/policy.h"
#include "util/bits.h"
#include "util/check.h"

namespace msw::alloc {

ExtentMeta*
Bin::grab_slab_locked()
{
    if (!nonfull_.empty())
        return nonfull_.head();
    if (cached_empty_ != nullptr) {
        ExtentMeta* slab = cached_empty_;
        cached_empty_ = nullptr;
        nonfull_.push_front(slab);
        return slab;
    }
    ExtentMeta* slab =
        extents_->alloc_extent(slab_pages(cls_), ExtentKind::kSlab);
    if (slab == nullptr) {
        return nullptr;
    }
    slab->set_cls(static_cast<std::uint16_t>(cls_));
    nonfull_.push_front(slab);
    return slab;
}

// msw-analyze: slow-path(the shared bin behind the thread cache: one lock
// per refill of half a cache shard; per call only with enable_tcache off)
unsigned
Bin::alloc_batch(void** out, unsigned n)
{
    const std::size_t obj_size = class_size(cls_);
    const unsigned nslots = slab_slots(cls_);
    unsigned produced = 0;

    // Slot *selection* is policy; everything else here (slab lists,
    // bitmap bookkeeping) is mechanism. The hook is lock-free and runs
    // under lock_; null keeps the historical first-fit scan inlined.
    const auto choose =
        policy_ != nullptr ? policy_->choose_slot : nullptr;

    LockGuard g(lock_);
    while (produced < n) {
        ExtentMeta* slab = grab_slab_locked();
        if (slab == nullptr) {
            // Out of extents under pressure: return the short batch; the
            // caller decides whether to reclaim and retry.
            break;
        }
        if (choose != nullptr) {
            // Policy-selected placement, one slot per pick.
            unsigned free_slots =
                nslots - static_cast<unsigned>(slab->used_slots);
            while (free_slots > 0 && produced < n) {
                const unsigned slot =
                    choose(slab->slot_bits, nslots, free_slots);
                MSW_DCHECK(slot < nslots && !slab->slot_allocated(slot));
                slab->set_slot(slot);
                ++slab->used_slots;
                --free_slots;
                out[produced++] =
                    to_ptr(slab->base + std::size_t{slot} * obj_size);
            }
            if (slab->used_slots == nslots)
                nonfull_.remove(slab);
            continue;
        }
        // Default: scan the slot bitmap for free slots, lowest first.
        const unsigned words = (nslots + 63) / 64;
        for (unsigned w = 0; w < words && produced < n; ++w) {
            std::uint64_t free_bits = ~slab->slot_bits[w];
            if (w == words - 1 && (nslots % 64) != 0) {
                free_bits &= (std::uint64_t{1} << (nslots % 64)) - 1;
            }
            while (free_bits != 0 && produced < n) {
                const unsigned bit =
                    static_cast<unsigned>(std::countr_zero(free_bits));
                free_bits &= free_bits - 1;
                const unsigned slot = w * 64 + bit;
                slab->set_slot(slot);
                ++slab->used_slots;
                out[produced++] =
                    to_ptr(slab->base + std::size_t{slot} * obj_size);
            }
        }
        if (slab->used_slots == nslots)
            nonfull_.remove(slab);
    }
    return produced;
}

unsigned
Bin::slot_of(void* ptr, ExtentMeta* meta) const
{
    MSW_DCHECK(meta->kind == ExtentKind::kSlab && meta->cls == cls_);
    const std::size_t obj_size = class_size(cls_);
    const auto offset = to_addr(ptr) - meta->base;
    MSW_DCHECK(offset % obj_size == 0);
    return static_cast<unsigned>(offset / obj_size);
}

bool
Bin::clear_slot_locked(ExtentMeta* meta, unsigned slot)
{
    MSW_CHECK(meta->slot_allocated(slot));
    const bool was_full = meta->used_slots == slab_slots(cls_);
    meta->clear_slot(slot);
    --meta->used_slots;
    return was_full;
}

void
Bin::retire_if_empty_locked(ExtentMeta* meta)
{
    if (meta->used_slots != 0)
        return;
    // Keep one empty slab cached; release further ones.
    nonfull_.remove(meta);
    if (cached_empty_ == nullptr) {
        cached_empty_ = meta;
    } else {
        extents_->free_extent(meta);
    }
}

// msw-analyze: slow-path(the shared bin behind the thread cache: reached
// per object of a cache-shard flush; per call only with enable_tcache off)
void
Bin::free_one(void* ptr, ExtentMeta* meta)
{
    const unsigned slot = slot_of(ptr, meta);
    LockGuard g(lock_);
    if (clear_slot_locked(meta, slot))
        nonfull_.push_front(meta);
    retire_if_empty_locked(meta);
}

void
Bin::free_batch(ExtentMeta* meta, void* const* ptrs, std::size_t n)
{
    LockGuard g(lock_);
    bool was_full = false;
    for (std::size_t i = 0; i < n; ++i)
        was_full |= clear_slot_locked(meta, slot_of(ptrs[i], meta));
    // Only the first free can find the slab full, and the slab can only
    // empty on the last: list moves once, as n free_one() calls would.
    if (was_full)
        nonfull_.push_front(meta);
    retire_if_empty_locked(meta);
}

}  // namespace msw::alloc
