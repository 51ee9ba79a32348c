/**
 * @file
 * Committed-page bitmap over the heap reservation.
 *
 * MineSweeper's extent hooks maintain this map: commit sets page bits,
 * purge/decommit (including quarantine page-unmapping, §4.2) clears them.
 * The sweeper then scans exactly the committed pages — purged pages are
 * excluded so a sweep never faults them back in, which is the point of
 * replacing jemalloc's purge with decommit/commit (paper §4.5).
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sweep/roots.h"
#include "util/bits.h"
#include "vm/vm.h"

namespace msw::sweep {

class PageAccessMap
{
  public:
    PageAccessMap(std::uintptr_t base, std::size_t bytes)
        : base_(base), num_pages_(bytes >> vm::kPageShift)
    {
        space_ = vm::Reservation::reserve(ceil_div(num_pages_, 64) *
                                          sizeof(std::uint64_t));
        space_.commit_must(space_.base(), space_.size());
        words_ = to_ptr_of<std::atomic<std::uint64_t>>(space_.base());
    }

    PageAccessMap(const PageAccessMap&) = delete;
    PageAccessMap& operator=(const PageAccessMap&) = delete;

    /** Mark [addr, addr+len) committed. */
    void
    set_range(std::uintptr_t addr, std::size_t len)
    {
        update_range(addr, len, true);
    }

    /** Mark [addr, addr+len) not committed. */
    void
    clear_range(std::uintptr_t addr, std::size_t len)
    {
        update_range(addr, len, false);
    }

    /** True if the page containing @p addr is committed. */
    bool
    test(std::uintptr_t addr) const
    {
        const std::size_t page = page_index(addr);
        // msw-relaxed(page-map): advisory bitmap peek; callers
        // tolerate a concurrently flipping page.
        return (words_[page / 64].load(std::memory_order_relaxed) >>
                (page % 64)) &
               1u;
    }

    /** Backing storage region (for scan exclusion lists). */
    const vm::Reservation& storage() const { return space_; }

    /** Bytes currently committed. */
    std::size_t
    committed_bytes() const
    {
        // msw-relaxed(page-map): statistics read; needs no ordering.
        return committed_pages_.load(std::memory_order_relaxed)
               << vm::kPageShift;
    }

    /**
     * Coalesced runs of committed pages — the sweep's heap scan list.
     * A consistent-enough snapshot: pages committed or purged while this
     * runs may or may not appear.
     */
    std::vector<Range>
    committed_runs() const
    {
        std::vector<Range> out;
        Range run{};
        const std::size_t words = ceil_div(num_pages_, 64);
        for (std::size_t w = 0; w < words; ++w) {
            // msw-relaxed(page-map): snapshot scan; racing commits or
            // purges may or may not appear, as documented above.
            std::uint64_t bits = words_[w].load(std::memory_order_relaxed);
            if (bits == 0) {
                if (run.len != 0) {
                    out.push_back(run);
                    run = Range{};
                }
                continue;
            }
            for (unsigned b = 0; b < 64; ++b) {
                const std::size_t page = w * 64 + b;
                if (page >= num_pages_)
                    break;
                if ((bits >> b) & 1u) {
                    const std::uintptr_t addr =
                        base_ + (page << vm::kPageShift);
                    if (run.len != 0 && run.end() == addr) {
                        run.len += vm::kPageSize;
                    } else {
                        if (run.len != 0)
                            out.push_back(run);
                        run = Range{addr, vm::kPageSize};
                    }
                } else if (run.len != 0) {
                    out.push_back(run);
                    run = Range{};
                }
            }
        }
        if (run.len != 0)
            out.push_back(run);
        return out;
    }

  private:
    std::size_t
    page_index(std::uintptr_t addr) const
    {
        MSW_DCHECK(addr >= base_);
        const std::size_t page = (addr - base_) >> vm::kPageShift;
        MSW_DCHECK(page < num_pages_);
        return page;
    }

    void
    update_range(std::uintptr_t addr, std::size_t len, bool set)
    {
        MSW_DCHECK(is_aligned(addr, vm::kPageSize));
        MSW_DCHECK(is_aligned(len, vm::kPageSize));
        if (len == 0)
            return;
        // One RMW per 64-page word; the bits that actually flipped
        // (popcount of old vs. mask) keep the page count exact under
        // overlapping or repeated updates.
        const std::size_t first = page_index(addr);
        const std::size_t end = first + (len >> vm::kPageShift);
        std::int64_t delta = 0;
        for (std::size_t p = first; p < end;) {
            const unsigned lo = p % 64;
            const std::size_t n = std::min<std::size_t>(64 - lo, end - p);
            const std::uint64_t mask =
                (n == 64 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << n) - 1)
                << lo;
            auto* word = &words_[p / 64];
            if (set) {
                // msw-relaxed(page-map): bit flips need only RMW
                // atomicity; the VM layer orders commit vs. access.
                const std::uint64_t old =
                    word->fetch_or(mask, std::memory_order_relaxed);
                delta += std::popcount(~old & mask);
            } else {
                // msw-relaxed(page-map): as above — RMW atomicity only.
                const std::uint64_t old =
                    word->fetch_and(~mask, std::memory_order_relaxed);
                delta -= std::popcount(old & mask);
            }
            p += n;
        }
        // msw-relaxed(page-map): statistics counter; needs no ordering.
        committed_pages_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::uintptr_t base_;
    std::size_t num_pages_;
    vm::Reservation space_;
    std::atomic<std::uint64_t>* words_ = nullptr;
    std::atomic<std::int64_t> committed_pages_{0};
};

}  // namespace msw::sweep
