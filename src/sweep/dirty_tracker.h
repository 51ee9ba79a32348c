/**
 * @file
 * Dirty-page tracking for the mostly-concurrent sweep mode (paper §4.3).
 *
 * The mostly-concurrent sweep marks memory concurrently with the
 * application, then briefly stops the world and re-checks only the pages
 * modified during the first pass, giving the same guarantee as MarkUs:
 * every reachable dangling pointer is found even if it moved mid-sweep.
 *
 * Two real tracking backends are provided, selected at runtime:
 *  - SoftDirtyTracker: the paper's mechanism — Linux soft-dirty PTEs via
 *    /proc/self/clear_refs + /proc/self/pagemap. Unavailable in some
 *    containers (pagemap hides the bit), detected by a self-test.
 *  - MprotectTracker: the classic GC write barrier the paper describes as
 *    the "standard solution": pages are write-protected and a SIGSEGV
 *    handler records the first write to each. Used as the fallback.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sweep/roots.h"
#include "vm/vm.h"

namespace msw::sweep {

class DirtyTracker
{
  public:
    virtual ~DirtyTracker() = default;

    virtual const char* name() const = 0;

    /**
     * True if the tracker can track any process memory (soft-dirty);
     * false if it is limited to the heap reservation (mprotect), in which
     * case the sweeper rescans non-heap roots fully during stop-the-world.
     */
    virtual bool tracks_arbitrary_memory() const { return false; }

    /**
     * Begin a tracking epoch over @p ranges (page-aligned, committed).
     * Writes that land in these ranges after this call are recorded.
     * Ranges the tracker cannot cover are ignored.
     */
    virtual void begin(const std::vector<Range>& ranges) = 0;

    /**
     * Inform the tracker that [addr, addr+len) was freshly committed
     * during the epoch; such pages are treated as dirty.
     */
    virtual void note_committed(std::uintptr_t /*addr*/, std::size_t /*len*/)
    {}

    /**
     * End the epoch and append the page ranges dirtied during it (clipped
     * to the tracked ranges) to @p out. The world should be stopped when
     * this is called so the result is exact.
     */
    virtual void end_collect(std::vector<Range>& out) = 0;
};

/**
 * Soft-dirty PTE tracker. Create via make(); returns nullptr when the
 * kernel does not expose working soft-dirty bits.
 */
class SoftDirtyTracker final : public DirtyTracker
{
  public:
    /** Probe kernel support; nullptr if unusable. */
    static std::unique_ptr<SoftDirtyTracker> make();

    ~SoftDirtyTracker() override;

    const char* name() const override { return "soft-dirty"; }
    bool tracks_arbitrary_memory() const override { return true; }
    void begin(const std::vector<Range>& ranges) override;
    void end_collect(std::vector<Range>& out) override;

  private:
    SoftDirtyTracker(int clear_fd, int pagemap_fd);

    void collect_range(const Range& r, std::vector<Range>& out) const;

    int clear_fd_;
    int pagemap_fd_;
    std::vector<Range> tracked_;
};

/**
 * Write-barrier tracker: write-protects the tracked ranges and records
 * faulting pages from a SIGSEGV handler. Covers exactly one heap
 * reservation. At most a few instances may have an epoch open at a time
 * (they share the process-wide signal handler).
 */
class MprotectTracker final : public DirtyTracker
{
  public:
    explicit MprotectTracker(const vm::Reservation* heap);
    ~MprotectTracker() override;

    /**
     * Install a predicate distinguishing committed heap pages from
     * decommitted ones. A write fault on a page the tracker no longer
     * tracks can be a *stale* barrier fault (raised just as an epoch
     * ended); if the page is committed, restoring PROT_READ|WRITE and
     * retrying is safe and required. Faults on uncommitted pages (e.g.
     * unmapped quarantined allocations — real use-after-frees) are never
     * absorbed. Must be set before the first epoch; called from a signal
     * handler, so it must be async-signal-safe.
     */
    void
    set_committed_filter(bool (*filter)(std::uintptr_t, void*), void* arg)
    {
        committed_filter_ = filter;
        committed_filter_arg_ = arg;
    }

    const char* name() const override { return "mprotect"; }
    void begin(const std::vector<Range>& ranges) override;
    void note_committed(std::uintptr_t addr, std::size_t len) override;
    void end_collect(std::vector<Range>& out) override;

    /**
     * Handler hook: returns true if @p addr was one of our write-protected
     * pages and has been restored (the faulting store can be retried).
     */
    bool handle_fault(std::uintptr_t addr);

    /** Diagnostic string for crash reports (async-signal-safe). */
    const char* describe_fault(std::uintptr_t addr) const;

  private:
    std::size_t
    page_index(std::uintptr_t addr) const
    {
        return (addr - heap_->base()) >> vm::kPageShift;
    }

    const vm::Reservation* heap_;
    vm::Reservation state_;
    /** Per-page state bytes: bit 0 = tracked (write-protected), bit 1 =
     *  dirty. Written from the signal handler, hence plain bytes accessed
     *  with atomic builtins. */
    unsigned char* page_state_ = nullptr;
    std::size_t num_pages_ = 0;
    std::vector<Range> tracked_;
    /** Epoch open: written by the collector (begin/end_collect), read by
     *  mutators through the commit hook (note_committed). */
    std::atomic<bool> active_{false};
    bool (*committed_filter_)(std::uintptr_t, void*) = nullptr;
    void* committed_filter_arg_ = nullptr;
};

/**
 * Pick the best available tracker: soft-dirty when supported, otherwise
 * the mprotect write barrier.
 */
std::unique_ptr<DirtyTracker> make_dirty_tracker(
    const vm::Reservation* heap);

}  // namespace msw::sweep
