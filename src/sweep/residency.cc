#include "sweep/residency.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "util/bits.h"
#include "vm/vm.h"

namespace msw::sweep {

namespace {

/** Pages per mincore call and per pagemap read. The buffers live on the
    stack, not the heap: the stop-the-world recheck calls this while
    parked mutators may hold allocator locks. */
constexpr std::size_t kBatchPages = 1024;

std::size_t
read_pagemap_fd(void* ctx, std::uintptr_t page, std::uint64_t* words,
                std::size_t count)
{
    const int fd = *static_cast<const int*>(ctx);
    const off_t offset =
        static_cast<off_t>(page >> vm::kPageShift) * sizeof(std::uint64_t);
    const ssize_t got =
        ::pread(fd, words, count * sizeof(std::uint64_t), offset);
    return got > 0 ? static_cast<std::size_t>(got) / sizeof(std::uint64_t)
                   : 0;
}

}  // namespace

void
append_resident_subranges(const std::vector<Range>& ranges,
                          std::vector<Range>* out)
{
    // Opened per call, not cached: after fork() a cached descriptor would
    // still describe the parent's address space.
    int fd = ::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        out->insert(out->end(), ranges.begin(), ranges.end());
        return;
    }
    append_resident_subranges(ranges, &read_pagemap_fd, &fd, out);
    ::close(fd);
}

void
append_resident_subranges(const std::vector<Range>& ranges,
                          PagemapReader read, void* ctx,
                          std::vector<Range>* out)
{
    unsigned char vec[kBatchPages];
    std::uint64_t words[kBatchPages];
    for (const Range& r : ranges) {
        if (r.empty())
            continue;
        Range run{};
        const auto emit_run = [&] {
            const std::uintptr_t lo = std::max(run.base, r.base);
            const std::uintptr_t hi = std::min(run.end(), r.end());
            if (lo < hi)
                out->push_back(Range{lo, hi - lo});
            run = Range{};
        };
        const auto visit = [&](std::uintptr_t page, bool resident) {
            if (resident) {
                if (run.len == 0)
                    run.base = page;
                run.len += vm::kPageSize;
            } else if (run.len != 0) {
                emit_run();
            }
        };
        const std::uintptr_t hi = align_up(r.end(), vm::kPageSize);
        for (std::uintptr_t batch = align_down(r.base, vm::kPageSize);
             batch < hi; batch += kBatchPages << vm::kPageShift) {
            const std::size_t n =
                std::min(kBatchPages, (hi - batch) >> vm::kPageShift);
            // Unmapped pages in the batch fail the whole call: leave every
            // page to pagemap, which reads unmapped ones as absent.
            if (::mincore(to_ptr(batch), n << vm::kPageShift, vec) != 0)
                std::memset(vec, 0, n);
            for (std::size_t i = 0; i < n;) {
                if (vec[i] & 1) {
                    visit(batch + (i << vm::kPageShift), true);
                    ++i;
                    continue;
                }
                // A stretch mincore calls absent: some of it may be
                // swapped out (or, where mincore failed, present).
                std::size_t j = i;
                while (j < n && !(vec[j] & 1))
                    ++j;
                const std::uintptr_t first = batch + (i << vm::kPageShift);
                const std::size_t got = read(ctx, first, words, j - i);
                for (std::size_t k = 0; k < j - i; ++k) {
                    // Unreadable words count as resident: scan, as
                    // without the filter.
                    visit(first + (k << vm::kPageShift),
                          k >= got || (words[k] & (kPagemapPresent |
                                                   kPagemapSwapped)) != 0);
                }
                i = j;
            }
        }
        if (run.len != 0)
            emit_run();
    }
}

}  // namespace msw::sweep
