/**
 * @file
 * Page residency: which pages of a scan range can hold data at all.
 *
 * A sweep reads every word of the memory it scans, so a page that holds
 * nothing still costs a read — and for an untouched anonymous page, a
 * minor fault that maps the zero page. This helper narrows a scan list to
 * the pages that are present in RAM or swapped out.
 *
 * Two queries, cheapest first. mincore() answers from the page table
 * alone, so it settles every page it reports resident. The stretches it
 * reports absent are then read from /proc/self/pagemap (bit 63 present,
 * bit 62 swapped), which tells a swapped-out page apart from one that was
 * never touched. pagemap alone would be exact too, but reading a present
 * page's entry also reads its struct page: on a mostly resident heap that
 * cost the mark phase about a fifth more time.
 *
 * Skipping the rest is exact for private anonymous memory — the heap,
 * thread stacks, anonymous roots: a page that is neither present nor
 * swapped reads as zero and cannot hold a pointer. A page that becomes
 * present after the query was written during the sweep, the same
 * concurrent write the sweep modes already handle (fully-concurrent
 * accepts it, mostly-concurrent's dirty tracker rechecks it).
 *
 * mincore alone is not enough: it reports a swapped-out anonymous page
 * as absent, so a swapped stack page holding a dangling pointer would be
 * skipped and its allocation released.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sweep/roots.h"

namespace msw::sweep {

/** pagemap entry flags (Linux admin-guide/mm/pagemap). */
inline constexpr std::uint64_t kPagemapPresent = std::uint64_t{1} << 63;
inline constexpr std::uint64_t kPagemapSwapped = std::uint64_t{1} << 62;

/**
 * Source of pagemap words: fill @p words[i] with the entry of the page at
 * @p page + i * kPageSize for i < @p count. Returns the number of words
 * filled (0 = unreadable).
 */
using PagemapReader = std::size_t (*)(void* ctx, std::uintptr_t page,
                                      std::uint64_t* words,
                                      std::size_t count);

/**
 * Append to @p out the present-or-swapped parts of @p ranges, clipped to
 * each range's (possibly unaligned) bounds. Both queries go through
 * fixed stack buffers, one mincore call per 1024 pages and one pagemap
 * read per absent stretch. When /proc/self/pagemap cannot be opened, or
 * a read fails, the affected ranges are kept whole: the scan then covers
 * every page, as without the filter.
 */
void append_resident_subranges(const std::vector<Range>& ranges,
                               std::vector<Range>* out);

/** As above, with the pagemap words supplied by @p read (tests feed
    synthetic words through this, for addresses mincore cannot see). */
void append_resident_subranges(const std::vector<Range>& ranges,
                               PagemapReader read, void* ctx,
                               std::vector<Range>* out);

}  // namespace msw::sweep
