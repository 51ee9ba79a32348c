#include "core/reclaimer.h"

#include <unistd.h>

#include <cstring>

#include "alloc/policy.h"
#include "util/bits.h"
#include "util/log.h"

namespace msw::core {

using quarantine::Entry;

void
Reclaimer::fill_free(void* ptr, std::size_t usable)
{
    if (config_.policy != nullptr && config_.policy->fill_free != nullptr)
        config_.policy->fill_free(ptr, usable);
    else
        std::memset(ptr, 0, usable);
}

Reclaimer::Reclaimer(const Config& config, alloc::JadeAllocator* jade,
                     sweep::PageAccessMap* access_map,
                     sweep::ShadowMap* quarantine_bitmap, StatCells* stats)
    : config_(config),
      jade_(jade),
      access_map_(access_map),
      quarantine_bitmap_(quarantine_bitmap),
      stats_(stats)
{
    LockGuard g(unmap_lock_);
    pending_unmaps_.reserve(config_.max_pending_unmaps);
}

Entry
Reclaimer::quarantine_prepare(void* ptr, std::uintptr_t base,
                              std::size_t usable, bool is_large)
{
    if (config_.unmapping && is_large)
        return prepare_unmapped(ptr, base, usable);
    if (config_.zeroing) {
        // Zeroing removes dangling pointers *from* quarantined data,
        // flattening the reference graph and breaking cycles (§4.1). The
        // policy hook may add a guard byte in the reserved tail slack,
        // which the sweeper verifies at release (alloc/policy.h).
        fill_free(ptr, usable);
    }
    return Entry::make(base, usable, false);
}

// msw-analyze: slow-path(page-scale frees only: the decommit it runs or
// defers is a syscall-scale operation by design)
Entry
Reclaimer::prepare_unmapped(void* ptr, std::uintptr_t base,
                            std::size_t usable)
{
    // Large allocations span exclusively-owned pages: release the
    // physical memory immediately (§4.2). If a sweep is scanning,
    // defer the decommit so concurrent marking never faults.
    Entry entry = Entry::make(base, usable, true);
    LockGuard g(unmap_lock_);
    // msw-relaxed(epoch-handoff): read under unmap_lock_, which
    // begin_scan/end_scan hold when they flip it.
    if (scan_active_.load(std::memory_order_relaxed)) {
        if (pending_unmaps_.size() < config_.max_pending_unmaps) {
            pending_unmaps_.push_back(entry);
            stats_->add(Stat::kUnmappedEntries);
        } else {
            // Queue full: forgo the unmap for this entry (safe; it
            // just stays mapped while quarantined).
            entry = Entry::make(base, usable, false);
            if (config_.zeroing)
                fill_free(ptr, usable);
        }
    } else if (unmap_entry(base, usable)) {
        stats_->add(Stat::kUnmappedEntries);
    } else {
        // Decommit refused under pressure: same safe downgrade as a
        // full queue — the entry stays mapped while quarantined.
        entry = Entry::make(base, usable, false);
        if (config_.zeroing)
            fill_free(ptr, usable);
    }
    return entry;
}

bool
Reclaimer::unmap_entry(std::uintptr_t base, std::size_t usable)
{
    if (jade_->reservation().decommit(base, usable) != vm::VmStatus::kOk) {
        return false;
    }
    access_map_->clear_range(base, usable);
    return true;
}

void
Reclaimer::drain_pending_locked()
{
    for (const Entry& e : pending_unmaps_) {
        // Entries released meanwhile must not be unmapped: their memory
        // may already be reallocated. Release clears the quarantine bit.
        if (quarantine_bitmap_->test(e.real_base())) {
            if (!unmap_entry(e.real_base(), e.usable)) {
                // Transient decommit failure: the entry simply keeps its
                // pages (and access-map bits) while quarantined;
                // release_entries() sees the bits and hands it back
                // committed, so the stale unmapped flag is harmless.
                MSW_LOG_DEBUG("deferred unmap of %zu bytes skipped",
                              e.usable);
            }
        }
    }
    pending_unmaps_.clear();
}

void
Reclaimer::begin_scan()
{
    LockGuard g(unmap_lock_);
    scan_active_.store(true, std::memory_order_release);
}

void
Reclaimer::drain_pending()
{
    LockGuard g(unmap_lock_);
    drain_pending_locked();
}

void
Reclaimer::end_scan()
{
    LockGuard g(unmap_lock_);
    scan_active_.store(false, std::memory_order_release);
    drain_pending_locked();
}

// The fork hooks hold unmap_lock_ across fork(); the pairing is
// enforced by core/lifecycle, outside what the static analysis can see.
void
Reclaimer::prepare_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    unmap_lock_.lock();
}

void
Reclaimer::parent_after_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    unmap_lock_.unlock();
}

void
Reclaimer::child_after_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    // Queued deferred unmaps are kept: the entries remain quarantined in
    // the child and drain on its next sweep's end_scan().
    scan_active_.store(false, std::memory_order_release);
    unmap_lock_.unlock();
}

Reclaimer::ReleaseTally
Reclaimer::release_entries(const Entry* entries, std::size_t n,
                           std::vector<Entry>* failed)
{
    ReleaseTally tally;
    void* mapped[alloc::JadeAllocator::kBatchWindow];
    std::size_t nmapped = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Entry& e = entries[i];
        if (e.unmapped && !access_map_->test(e.real_base())) {
            // Decommitted at free or at the deferred drain: hand the
            // range back in that state. Reuse commits it; the post-sweep
            // purge has nothing left to do for it.
            quarantine_bitmap_->clear(e.real_base());
            jade_->free_decommitted(to_ptr(e.real_base()));
        } else {
            // A failed deferred decommit leaves Entry::unmapped set on
            // pages that kept their backing and their access-map bits.
            // Its mprotect may have failed part-way, so restore access
            // (idempotent) before the block can be reissued.
            if (e.unmapped &&
                !protect_rw_with_retry(e.real_base(), e.usable)) {
                failed->push_back(e);
                continue;
            }
            // The bit clears before the block can be reissued, so a
            // reissued block's free starts a fresh quarantine entry.
            quarantine_bitmap_->clear(e.real_base());
            mapped[nmapped++] = to_ptr(e.real_base());
            if (nmapped == alloc::JadeAllocator::kBatchWindow) {
                jade_->free_direct_batch(mapped, nmapped);
                nmapped = 0;
            }
        }
        ++tally.entries;
        tally.bytes += e.usable;
    }
    jade_->free_direct_batch(mapped, nmapped);
    // The sweeper's stack is a scan root in the self-hosted deployment:
    // leave no raw block addresses behind for the next sweep to pin.
    explicit_bzero(mapped, sizeof(mapped));
    return tally;
}

bool
Reclaimer::protect_rw_with_retry(std::uintptr_t base, std::size_t len)
{
    constexpr int kAttempts = 10;
    unsigned backoff_us = 50;
    for (int i = 0; i < kAttempts; ++i) {
        if (jade_->reservation().protect_rw(base, len) == vm::VmStatus::kOk)
            return true;
        ::usleep(backoff_us);
        if (backoff_us < 10'000)
            backoff_us *= 2;
    }
    return false;
}

}  // namespace msw::core
