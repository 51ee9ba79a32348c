#include "baselines/ffmalloc.h"

#include <cstring>

#include "util/bits.h"
#include "util/check.h"
#include "util/log.h"
#include "util/mutex.h"

namespace msw::baseline {

using alloc::class_size;
using alloc::num_size_classes;
using alloc::size_to_class;

namespace {

/** Page-state bit: the bump pointer has passed the page. */
constexpr std::uint16_t kSealed = 0x8000;

}  // namespace

FFMalloc::FFMalloc(const Options& opts)
    : space_(vm::Reservation::reserve(opts.va_bytes)),
      num_classes_(num_size_classes())
{
    const std::size_t pages = space_.size() >> vm::kPageShift;
    info_space_ = vm::Reservation::reserve(pages * sizeof(std::uint32_t));
    info_space_.commit_must(info_space_.base(), info_space_.size());
    page_info_ = to_ptr_of<std::uint32_t>(info_space_.base());

    live_space_ = vm::Reservation::reserve(pages * sizeof(std::uint16_t));
    live_space_.commit_must(live_space_.base(), live_space_.size());
    page_state_ = to_ptr_of<std::atomic<std::uint16_t>>(live_space_.base());

    {
        LockGuard g(frontier_lock_);
        frontier_ = space_.base();
    }
    pools_ = new Pool[num_classes_];
}

FFMalloc::~FFMalloc()
{
    delete[] pools_;
}

std::size_t
FFMalloc::frontier_bytes() const
{
    LockGuard g(frontier_lock_);
    return frontier_ - space_.base();
}

std::uintptr_t
FFMalloc::grab_span(std::size_t bytes, std::size_t align_bytes)
{
    LockGuard g(frontier_lock_);
    const std::uintptr_t addr = align_up(frontier_, align_bytes);
    if (addr + bytes > space_.end()) {
        // One-time allocation means VA burn is terminal, not transient;
        // still honour the malloc contract (nullptr, not abort).
        static std::atomic<bool> logged{false};
        // msw-relaxed(config-flag): log-once latch; only RMW
        // atomicity matters.
        if (!logged.exchange(true, std::memory_order_relaxed)) {
            MSW_LOG_WARN(
                "ffmalloc: virtual address space exhausted (%zu MiB); "
                "returning nullptr",
                space_.size() >> 20);
        }
        return 0;
    }
    if (space_.commit(addr, bytes) != vm::VmStatus::kOk)
        return 0;  // frontier untouched; a later attempt may succeed
    // Alignment-gap pages are dead forever and were never committed.
    frontier_ = addr + bytes;
    stats_.add(core::Stat::kCommittedBytes, bytes);
    return addr;
}

void
FFMalloc::decommit_page(std::uintptr_t page_addr)
{
    // On transient decommit failure the page stays physically committed
    // (bounded leak: its VA is retired and it is never touched again),
    // so the accounting must not drop it.
    if (space_.decommit(page_addr, vm::kPageSize) == vm::VmStatus::kOk)
        stats_.sub(core::Stat::kCommittedBytes, vm::kPageSize);
}

void
FFMalloc::seal_and_maybe_decommit(std::uintptr_t page_addr)
{
    // Sealing an empty page decommits it; a page sealed with live
    // objects is decommitted by the free that empties it. Count and
    // seal share one word, so exactly one of the two sees the page both
    // sealed and empty. Idempotent: a second seal finds kSealed set.
    const std::uint16_t old = page_state_[page_index(page_addr)].fetch_or(
        kSealed, std::memory_order_acq_rel);
    if (old == 0)
        decommit_page(page_addr);
}

void
FFMalloc::on_object_freed(std::uintptr_t base, std::size_t usable)
{
    const std::uintptr_t first = align_down(base, vm::kPageSize);
    const std::uintptr_t last =
        align_down(base + usable - 1, vm::kPageSize);
    for (std::uintptr_t p = first; p <= last; p += vm::kPageSize) {
        const std::uint16_t old = page_state_[page_index(p)].fetch_sub(
            1, std::memory_order_acq_rel);
        MSW_CHECK((old & ~kSealed) != 0);
        // The last object off a sealed page: no allocation can land on
        // it again.
        if (old == (kSealed | 1))
            decommit_page(p);
    }
}

bool
FFMalloc::refill_pool(unsigned cls)
{
    Pool& pool = pools_[cls];
    // Retire the old span: every fully-consumed or skipped page is sealed.
    // Idempotent, so running it again on a failed-refill retry is safe.
    if (pool.end != 0) {
        for (std::uintptr_t p = align_down(pool.bump, vm::kPageSize);
             p < pool.end; p += vm::kPageSize) {
            seal_and_maybe_decommit(p);
        }
    }
    const std::uintptr_t span = grab_span(kPoolBytes, vm::kPageSize);
    if (span == 0)
        return false;  // pool untouched; the next alloc retries the refill
    for (std::uintptr_t p = span; p < span + kPoolBytes; p += vm::kPageSize)
        page_info_[page_index(p)] = cls + 1;
    pool.bump = span;
    pool.end = span + kPoolBytes;
    return true;
}

void*
FFMalloc::alloc(std::size_t size)
{
    stats_.add(core::Stat::kAllocCalls);
    if (size == 0)
        size = 1;

    if (size > alloc::kMaxSmallSize)
        return alloc_large(size, vm::kPageSize);

    const unsigned cls = size_to_class(size);
    const std::size_t csize = class_size(cls);
    Pool& pool = pools_[cls];
    std::uintptr_t addr;
    {
        LockGuard g(pool.lock);
        if (pool.bump + csize > pool.end && !refill_pool(cls))
            return nullptr;
        addr = pool.bump;
        pool.bump += csize;
        // Count the object on every page it overlaps *before* sealing, so
        // a page is never sealed-empty while an object on it is pending.
        const std::uintptr_t first = align_down(addr, vm::kPageSize);
        const std::uintptr_t last =
            align_down(addr + csize - 1, vm::kPageSize);
        for (std::uintptr_t p = first; p <= last; p += vm::kPageSize) {
            // msw-relaxed(page-seal): live census under pool.lock, on a
            // page not yet sealed; only RMW atomicity matters to racing
            // frees.
            page_state_[page_index(p)].fetch_add(1,
                                                 std::memory_order_relaxed);
        }
        // Seal pages the bump pointer has fully passed: nothing more will
        // ever be allocated on them (one-time allocation).
        const std::uintptr_t sealed_limit =
            align_down(pool.bump, vm::kPageSize);
        for (std::uintptr_t p = first; p < sealed_limit; p += vm::kPageSize)
            seal_and_maybe_decommit(p);
    }
    stats_.add(core::Stat::kLiveBytes, csize);
    return to_ptr(addr);
}

void*
FFMalloc::alloc_aligned(std::size_t alignment, std::size_t size)
{
    if (alignment <= alloc::kGranule)
        return alloc(size);
    MSW_CHECK(is_pow2(alignment));
    stats_.add(core::Stat::kAllocCalls);
    return alloc_large(size == 0 ? 1 : size,
                       alignment > vm::kPageSize ? alignment : vm::kPageSize);
}

void*
FFMalloc::alloc_large(std::size_t size, std::size_t align_bytes)
{
    const std::size_t bytes = align_up(size, vm::kPageSize);
    const std::uintptr_t addr = grab_span(bytes, align_bytes);
    if (addr == 0)
        return nullptr;
    const std::size_t first = page_index(addr);
    const std::size_t pages = bytes >> vm::kPageShift;
    page_info_[first] = kLargeStart | static_cast<std::uint32_t>(pages);
    for (std::size_t i = 1; i < pages; ++i)
        page_info_[first + i] = kLargeInterior;
    stats_.add(core::Stat::kLiveBytes, bytes);
    return to_ptr(addr);
}

void
FFMalloc::free(void* ptr)
{
    if (ptr == nullptr)
        return;
    stats_.add(core::Stat::kFreeCalls);
    const std::uintptr_t addr = to_addr(ptr);
    MSW_CHECK(space_.contains(addr));
    const std::uint32_t info = page_info_[page_index(addr)];
    MSW_CHECK(info != kPageFree);

    if (info & kLargeStart) {
        // Interior pointers of large objects are not valid free() targets.
        MSW_CHECK((info & kLargeInterior) != kLargeInterior);
        MSW_CHECK(is_aligned(addr, vm::kPageSize));
        const std::size_t pages = info & ~kLargeStart;
        const std::size_t bytes = pages << vm::kPageShift;
        stats_.sub(core::Stat::kLiveBytes, bytes);
        // The whole span dies at once: decommit it and retire the VA.
        // Its pages' state words are never used.
        const std::size_t first = page_index(addr);
        for (std::size_t i = 0; i < pages; ++i)
            page_info_[first + i] = kPageFree;
        if (space_.decommit(addr, bytes) == vm::VmStatus::kOk)
            stats_.sub(core::Stat::kCommittedBytes, bytes);
        return;
    }

    const unsigned cls = info - 1;
    MSW_CHECK(cls < num_classes_);
    const std::size_t csize = class_size(cls);
    stats_.sub(core::Stat::kLiveBytes, csize);
    on_object_freed(addr, csize);
}

std::size_t
FFMalloc::usable_size(const void* ptr) const
{
    const std::uintptr_t addr = to_addr(ptr);
    MSW_CHECK(space_.contains(addr));
    const std::uint32_t info = page_info_[page_index(addr)];
    MSW_CHECK(info != kPageFree);
    if (info & kLargeStart)
        return (info & ~kLargeStart) << vm::kPageShift;
    return class_size(info - 1);
}

alloc::AllocatorStats
FFMalloc::stats() const
{
    alloc::AllocatorStats s;
    s.live_bytes = stats_.read(core::Stat::kLiveBytes);
    s.committed_bytes = stats_.read(core::Stat::kCommittedBytes);
    s.metadata_bytes = info_space_.size() + live_space_.size();
    s.alloc_calls = stats_.read(core::Stat::kAllocCalls);
    s.free_calls = stats_.read(core::Stat::kFreeCalls);
    return s;
}

}  // namespace msw::baseline
