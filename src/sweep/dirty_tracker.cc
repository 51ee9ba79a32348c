#include "sweep/dirty_tracker.h"

#include <execinfo.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <cstdio>

#include "util/bits.h"
#include "util/check.h"
#include "util/log.h"
#include "util/mutex.h"
#include "util/spin_lock.h"

namespace msw::sweep {

// ---------------------------------------------------------------------
// SoftDirtyTracker
// ---------------------------------------------------------------------

namespace {

constexpr std::uint64_t kSoftDirtyBit = std::uint64_t{1} << 55;

/** Ask the kernel to clear all soft-dirty bits for this process. */
bool
clear_soft_dirty(int clear_fd)
{
    return ::pwrite(clear_fd, "4\n", 2, 0) == 2;
}

/** Read pagemap entries for @p count pages starting at @p vaddr. */
bool
read_pagemap(int pagemap_fd, std::uintptr_t vaddr, std::uint64_t* entries,
             std::size_t count)
{
    const off_t offset =
        static_cast<off_t>(vaddr >> vm::kPageShift) * sizeof(std::uint64_t);
    const ssize_t want = static_cast<ssize_t>(count * sizeof(std::uint64_t));
    return ::pread(pagemap_fd, entries, want, offset) == want;
}

}  // namespace

std::unique_ptr<SoftDirtyTracker>
SoftDirtyTracker::make()
{
    const int clear_fd = ::open("/proc/self/clear_refs", O_WRONLY);
    const int pagemap_fd = ::open("/proc/self/pagemap", O_RDONLY);
    if (clear_fd < 0 || pagemap_fd < 0) {
        if (clear_fd >= 0)
            ::close(clear_fd);
        if (pagemap_fd >= 0)
            ::close(pagemap_fd);
        MSW_LOG_INFO("soft-dirty unavailable: cannot open proc files");
        return nullptr;
    }

    // Self-test: clear, dirty a page, and confirm the bit reads back. Some
    // containers accept the clear but hide the bit in pagemap.
    void* probe = ::mmap(nullptr, vm::kPageSize, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    MSW_CHECK(probe != MAP_FAILED);
    bool ok = clear_soft_dirty(clear_fd);
    if (ok) {
        *static_cast<volatile char*>(probe) = 1;
        std::uint64_t entry = 0;
        ok = read_pagemap(pagemap_fd, to_addr(probe), &entry, 1) &&
             (entry & kSoftDirtyBit) != 0;
    }
    ::munmap(probe, vm::kPageSize);
    if (!ok) {
        MSW_LOG_INFO("soft-dirty unavailable: self-test failed");
        ::close(clear_fd);
        ::close(pagemap_fd);
        return nullptr;
    }
    return std::unique_ptr<SoftDirtyTracker>(
        new SoftDirtyTracker(clear_fd, pagemap_fd));
}

SoftDirtyTracker::SoftDirtyTracker(int clear_fd, int pagemap_fd)
    : clear_fd_(clear_fd), pagemap_fd_(pagemap_fd)
{}

SoftDirtyTracker::~SoftDirtyTracker()
{
    ::close(clear_fd_);
    ::close(pagemap_fd_);
}

void
SoftDirtyTracker::begin(const std::vector<Range>& ranges)
{
    tracked_ = ranges;
    MSW_CHECK(clear_soft_dirty(clear_fd_));
}

void
SoftDirtyTracker::collect_range(const Range& r, std::vector<Range>& out) const
{
    constexpr std::size_t kBatch = 1024;  // pages per pagemap read
    std::uint64_t entries[kBatch];

    std::uintptr_t addr = align_down(r.base, vm::kPageSize);
    const std::uintptr_t end = align_up(r.end(), vm::kPageSize);
    Range run{};
    while (addr < end) {
        const std::size_t pages =
            std::min(kBatch, (end - addr) >> vm::kPageShift);
        if (!read_pagemap(pagemap_fd_, addr, entries, pages)) {
            // Treat unreadable stretches as dirty (conservative).
            out.push_back(Range{addr, pages << vm::kPageShift});
            addr += pages << vm::kPageShift;
            continue;
        }
        for (std::size_t i = 0; i < pages; ++i) {
            const std::uintptr_t page = addr + (i << vm::kPageShift);
            if (entries[i] & kSoftDirtyBit) {
                if (run.len != 0 && run.end() == page) {
                    run.len += vm::kPageSize;
                } else {
                    if (run.len != 0)
                        out.push_back(run);
                    run = Range{page, vm::kPageSize};
                }
            }
        }
        addr += pages << vm::kPageShift;
    }
    if (run.len != 0)
        out.push_back(run);
}

void
SoftDirtyTracker::end_collect(std::vector<Range>& out)
{
    for (const Range& r : tracked_)
        collect_range(r, out);
    tracked_.clear();
}

// ---------------------------------------------------------------------
// MprotectTracker
// ---------------------------------------------------------------------

namespace {

constexpr int kMaxActiveTrackers = 8;
MprotectTracker* g_active_trackers[kMaxActiveTrackers] = {};
SpinLock g_tracker_lock;
std::atomic<bool> g_segv_handler_installed{false};
struct sigaction g_prev_segv;

void
segv_handler(int sig, siginfo_t* info, void* ucontext)
{
    const auto addr = to_addr(info->si_addr);
    for (int i = 0; i < kMaxActiveTrackers; ++i) {
        MprotectTracker* tracker =
            __atomic_load_n(&g_active_trackers[i], __ATOMIC_ACQUIRE);
        if (tracker != nullptr && tracker->handle_fault(addr))
            return;  // store will be retried against the now-RW page
    }
    // Not ours: chain to the previous handler (default: crash). This is
    // also the path a prevented use-after-free takes when it touches a
    // PROT_NONE quarantined page — clean termination, as per the paper.
    {
        char buf[256];
        int n = snprintf(
            buf, sizeof(buf),
            "[msw] unhandled SIGSEGV at %p (code=%d); terminating\n",
            info->si_addr, info->si_code);
        for (int i = 0; i < kMaxActiveTrackers; ++i) {
            MprotectTracker* tracker =
                __atomic_load_n(&g_active_trackers[i], __ATOMIC_ACQUIRE);
            if (tracker != nullptr) {
                n += snprintf(buf + n, sizeof(buf) - n,
                              "[msw]   tracker %d: %s\n", i,
                              tracker->describe_fault(addr));
            }
        }
        ssize_t ignored = write(2, buf, n);
        (void)ignored;
        void* frames[32];
        const int depth = backtrace(frames, 32);
        backtrace_symbols_fd(frames, depth, 2);
    }
    if (g_prev_segv.sa_flags & SA_SIGINFO) {
        if (g_prev_segv.sa_sigaction != nullptr) {
            g_prev_segv.sa_sigaction(sig, info, ucontext);
            return;
        }
    } else if (g_prev_segv.sa_handler != SIG_DFL &&
               g_prev_segv.sa_handler != SIG_IGN &&
               g_prev_segv.sa_handler != nullptr) {
        g_prev_segv.sa_handler(sig);
        return;
    }
    // Restore default disposition and re-raise.
    signal(SIGSEGV, SIG_DFL);
    raise(SIGSEGV);
}

void
install_segv_handler()
{
    bool expected = false;
    if (g_segv_handler_installed.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_sigaction = &segv_handler;
        sa.sa_flags = SA_SIGINFO | SA_RESTART;
        sigemptyset(&sa.sa_mask);
        MSW_CHECK(sigaction(SIGSEGV, &sa, &g_prev_segv) == 0);
    }
}

constexpr unsigned char kTracked = 1;
constexpr unsigned char kDirty = 2;

}  // namespace

MprotectTracker::MprotectTracker(const vm::Reservation* heap) : heap_(heap)
{
    num_pages_ = heap_->size() >> vm::kPageShift;
    state_ = vm::Reservation::reserve(num_pages_);
    state_.commit_must(state_.base(), state_.size());
    page_state_ = to_ptr_of<unsigned char>(state_.base());
    install_segv_handler();
    // Register for the tracker's whole lifetime (not per epoch): a write
    // fault raised during an epoch can reach the handler *after* the
    // epoch ended, and must still be recognised and recovered.
    LockGuard g(g_tracker_lock);
    bool placed = false;
    for (auto& slot : g_active_trackers) {
        if (slot == nullptr) {
            __atomic_store_n(&slot, this, __ATOMIC_RELEASE);
            placed = true;
            break;
        }
    }
    MSW_CHECK(placed);
}

MprotectTracker::~MprotectTracker()
{
    LockGuard g(g_tracker_lock);
    for (auto& slot : g_active_trackers) {
        if (slot == this)
            __atomic_store_n(&slot, static_cast<MprotectTracker*>(nullptr),
                             __ATOMIC_RELEASE);
    }
}

void
MprotectTracker::begin(const std::vector<Range>& ranges)
{
    // msw-relaxed(dirty-pages): only the collector writes active_; this
    // reads its own last store.
    MSW_CHECK(!active_.load(std::memory_order_relaxed));
    tracked_.clear();
    for (const Range& r : ranges) {
        if (heap_->contains(r.base))
            tracked_.push_back(r);
    }
    // Opens the epoch for the commit hook; pairs with note_committed().
    active_.store(true, std::memory_order_release);
    for (const Range& r : tracked_) {
        const std::uintptr_t lo = align_down(r.base, vm::kPageSize);
        const std::uintptr_t hi = align_up(r.end(), vm::kPageSize);
        for (std::uintptr_t p = lo; p < hi; p += vm::kPageSize) {
            // msw-relaxed(dirty-pages): the mprotect() below is the
            // synchronisation point; faults cannot precede it.
            __atomic_store_n(&page_state_[page_index(p)], kTracked,
                             __ATOMIC_RELAXED);
        }
        MSW_CHECK(::mprotect(to_ptr(lo), hi - lo, PROT_READ) == 0);
    }
}

bool
MprotectTracker::handle_fault(std::uintptr_t addr)
{
    if (!heap_->contains(addr))
        return false;
    const std::size_t idx = page_index(addr);
    const std::uintptr_t page = align_down(addr, vm::kPageSize);
    unsigned char st = __atomic_load_n(&page_state_[idx], __ATOMIC_ACQUIRE);
    if (!(st & kTracked)) {
        // Stale barrier fault: the epoch may have ended (end_collect
        // restores RW concurrently with in-flight faults), or another
        // thread already recovered this page. If the page is committed,
        // restoring access is idempotent and the store retries safely;
        // if it is not (an unmapped quarantined page — a real
        // use-after-free), decline so the program terminates cleanly.
        if (committed_filter_ != nullptr &&
            committed_filter_(addr, committed_filter_arg_)) {
            return ::mprotect(to_ptr(page), vm::kPageSize,
                              PROT_READ | PROT_WRITE) == 0;
        }
        return false;
    }
    // First write to this page during the epoch: record and unprotect.
    __atomic_store_n(&page_state_[idx],
                     static_cast<unsigned char>(kDirty), __ATOMIC_RELEASE);
    if (::mprotect(to_ptr(page), vm::kPageSize, PROT_READ | PROT_WRITE) != 0)
        return false;
    return true;
}

const char*
MprotectTracker::describe_fault(std::uintptr_t addr) const
{
    if (!heap_->contains(addr))
        return "outside heap";
    // msw-relaxed(dirty-pages): diagnostic describe path; a stale
    // state only mislabels the crash report.
    const unsigned char st =
        __atomic_load_n(&page_state_[page_index(addr)], __ATOMIC_RELAXED);
    const bool committed =
        committed_filter_ != nullptr &&
        committed_filter_(addr, committed_filter_arg_);
    if (st & kTracked)
        return committed ? "tracked+committed" : "tracked+uncommitted";
    if (st & kDirty)
        return committed ? "dirty+committed" : "dirty+uncommitted";
    return committed ? "untracked+committed" : "untracked+uncommitted";
}

void
MprotectTracker::note_committed(std::uintptr_t addr, std::size_t len)
{
    // Pairs with the release stores in begin() and end_collect().
    if (!active_.load(std::memory_order_acquire))
        return;
    const std::uintptr_t lo = align_down(addr, vm::kPageSize);
    const std::uintptr_t hi = align_up(addr + len, vm::kPageSize);
    for (std::uintptr_t p = lo; p < hi; p += vm::kPageSize) {
        // msw-relaxed(dirty-pages): cell update; end_collect() reads
        // it only after mprotect restores access on the range.
        __atomic_store_n(&page_state_[page_index(p)], kDirty,
                         __ATOMIC_RELAXED);
    }
}

void
MprotectTracker::end_collect(std::vector<Range>& out)
{
    // msw-relaxed(dirty-pages): collector-only read of its own store.
    MSW_CHECK(active_.load(std::memory_order_relaxed));
    // Restore write access on still-protected pages and harvest dirty runs.
    for (const Range& r : tracked_) {
        const std::uintptr_t lo = align_down(r.base, vm::kPageSize);
        const std::uintptr_t hi = align_up(r.end(), vm::kPageSize);
        MSW_CHECK(::mprotect(to_ptr(lo), hi - lo,
                             PROT_READ | PROT_WRITE) == 0);
        Range run{};
        for (std::uintptr_t p = lo; p < hi; p += vm::kPageSize) {
            const std::size_t idx = page_index(p);
            // msw-relaxed(dirty-pages): harvest after the mprotect
            // above; no new faults can be marking these cells.
            const unsigned char st =
                __atomic_load_n(&page_state_[idx], __ATOMIC_RELAXED);
            // msw-relaxed(dirty-pages): as above — post-mprotect reset.
            __atomic_store_n(&page_state_[idx],
                             static_cast<unsigned char>(0),
                             __ATOMIC_RELAXED);
            if (st & kDirty) {
                if (run.len != 0 && run.end() == p) {
                    run.len += vm::kPageSize;
                } else {
                    if (run.len != 0)
                        out.push_back(run);
                    run = Range{p, vm::kPageSize};
                }
            }
        }
        if (run.len != 0)
            out.push_back(run);
    }
    active_.store(false, std::memory_order_release);
    tracked_.clear();
}

std::unique_ptr<DirtyTracker>
make_dirty_tracker(const vm::Reservation* heap)
{
    if (auto sd = SoftDirtyTracker::make()) {
        MSW_LOG_INFO("dirty tracking: soft-dirty PTEs");
        return sd;
    }
    MSW_LOG_INFO("dirty tracking: mprotect write barrier (fallback)");
    return std::make_unique<MprotectTracker>(heap);
}

}  // namespace msw::sweep
