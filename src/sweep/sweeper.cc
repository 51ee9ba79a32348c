#include "sweep/sweeper.h"

#include <algorithm>
#include <ctime>
#include <new>

#include "util/bits.h"
#include "util/check.h"
#include "vm/vm.h"

namespace msw::sweep {

std::uint64_t
thread_cpu_ns()
{
    struct timespec ts;
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

// ---------------------------------------------------------------------
// SweepWorkers
// ---------------------------------------------------------------------

SweepWorkers::SweepWorkers(unsigned helpers)
{
    threads_.reserve(helpers);
    for (unsigned i = 0; i < helpers; ++i)
        threads_.emplace_back([this, i] { worker_loop(i + 1); });
}

SweepWorkers::~SweepWorkers()
{
    {
        MutexGuard g(mu_);
        shutdown_ = true;
    }
    cv_work_.notify_all();
    for (auto& t : threads_)
        t.join();
}

void
SweepWorkers::worker_loop(unsigned index)
{
    std::uint64_t seen_generation = 0;
    for (;;) {
        const std::function<void(unsigned)>* job = nullptr;
        {
            UniqueLock g(mu_);
            cv_work_.wait(g, [&]() MSW_REQUIRES(mu_) {
                return shutdown_ || generation_ != seen_generation;
            });
            if (shutdown_)
                return;
            seen_generation = generation_;
            job = job_;
        }
        const std::uint64_t cpu_before = thread_cpu_ns();
        (*job)(index);
        // msw-relaxed(stat-cells): CPU-time tally; totals need no
        // ordering.
        helper_cpu_ns_.fetch_add(thread_cpu_ns() - cpu_before,
                                 std::memory_order_relaxed);
        {
            MutexGuard g(mu_);
            --running_;
        }
        cv_done_.notify_one();
    }
}

void
SweepWorkers::run(const std::function<void(unsigned)>& fn)
{
    {
        MutexGuard g(mu_);
        MSW_CHECK(running_ == 0);
        job_ = &fn;
        running_ = static_cast<unsigned>(threads_.size());
        ++generation_;
    }
    cv_work_.notify_all();
    fn(0);
    UniqueLock g(mu_);
    cv_done_.wait(g, [&]() MSW_REQUIRES(mu_) { return running_ == 0; });
    job_ = nullptr;
}

// The fork hooks hold mu_ across fork(); the pairing is enforced by
// core/lifecycle, outside what the static analysis can see.
void
SweepWorkers::prepare_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    // A dispatched job finishes before mu_ is granted only if run()'s
    // final wait can complete — it can: helpers still exist in the
    // parent, and this lock is only contended between jobs. Fork with
    // the pool idle and frozen.
    mu_.lock();
    while (running_ != 0) {
        mu_.unlock();
        std::this_thread::yield();
        mu_.lock();
    }
}

void
SweepWorkers::parent_after_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    mu_.unlock();
}

void
SweepWorkers::child_after_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    // The inherited handles name parent threads; destroying a joinable
    // std::thread terminates, so reinitialise each in place to "not a
    // thread" before dropping them. The pool degrades to caller-only.
    for (auto& t : threads_)
        new (&t) std::thread();
    threads_.clear();
    job_ = nullptr;
    running_ = 0;
    // The cvs' internal heap mutexes are locked outside mu_ by
    // notify_one/notify_all (libstdc++), so a parent thread mid-notify
    // leaves them locked here with no owner. Reinitialise in place
    // (no destructor: destroying the locked internal mutex is UB).
    new (&cv_work_) std::condition_variable_any();
    new (&cv_done_) std::condition_variable_any();
    mu_.unlock();
}

// ---------------------------------------------------------------------
// Marker
// ---------------------------------------------------------------------

std::vector<Range>
chunk_ranges(const std::vector<Range>& ranges, std::size_t chunk_bytes)
{
    std::vector<Range> chunks;
    for (const Range& r : ranges) {
        std::uintptr_t base = r.base;
        std::size_t left = r.len;
        while (left > chunk_bytes) {
            chunks.push_back(Range{base, chunk_bytes});
            base += chunk_bytes;
            left -= chunk_bytes;
        }
        if (left > 0)
            chunks.push_back(Range{base, left});
    }
    return chunks;
}

void
Marker::scan_chunk(std::uintptr_t lo, std::uintptr_t hi,
                   MarkStats* stats) const
{
    lo = align_up(lo, sizeof(std::uint64_t));
    hi = align_down(hi, sizeof(std::uint64_t));
    if (lo >= hi)
        return;
    const auto* p = to_ptr_of<const std::uint64_t>(lo);
    const auto* end = to_ptr_of<const std::uint64_t>(hi);
    const std::uintptr_t base = heap_base_;
    const std::uintptr_t limit = heap_end_;
    std::uint64_t found = 0;
    for (; p != end; ++p) {
        // Mutators write the scanned memory concurrently (fully-concurrent
        // mode tolerates torn/stale words by design, §4.3); the relaxed
        // atomic load makes that well-defined without changing the
        // generated code — it is still a single plain load on x86/arm64.
        // msw-relaxed(marker-scan): see above — conservative scan.
        const std::uint64_t v = __atomic_load_n(p, __ATOMIC_RELAXED);
        // One subtraction + compare: "does this word point into the heap
        // reservation?" — the entire per-word cost of the linear sweep.
        if (v - base < limit - base) {
            shadow_->mark(v);
            ++found;
        }
    }
    stats->bytes_scanned += hi - lo;
    stats->pointers_found += found;
}

MarkStats
Marker::mark_one(const Range& range)
{
    MarkStats stats;
    scan_chunk(range.base, range.end(), &stats);
    return stats;
}

MarkStats
Marker::mark_ranges(const std::vector<Range>& ranges, SweepWorkers* workers)
{
    // 1 MiB chunks: large enough to amortise dispatch, small enough to
    // balance across workers.
    const std::vector<Range> chunks = chunk_ranges(ranges, 1 << 20);
    if (workers == nullptr || workers->count() == 1 || chunks.size() <= 1) {
        MarkStats stats;
        for (const Range& c : chunks)
            scan_chunk(c.base, c.end(), &stats);
        return stats;
    }

    std::atomic<std::size_t> next{0};
    std::vector<MarkStats> per_worker(workers->count());
    workers->run([&](unsigned index) {
        MarkStats& stats = per_worker[index];
        for (;;) {
            // msw-relaxed(work-cursor): chunk ticket; only RMW
            // atomicity matters, chunks are read-only here.
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= chunks.size())
                break;
            scan_chunk(chunks[i].base, chunks[i].end(), &stats);
        }
    });

    MarkStats total;
    for (const MarkStats& s : per_worker) {
        total.bytes_scanned += s.bytes_scanned;
        total.pointers_found += s.pointers_found;
    }
    return total;
}

const void*
find_nonzero(const void* p, std::size_t n)
{
    const auto* b = static_cast<const unsigned char*>(p);
    const unsigned char* end = b + n;
    // Byte-wise to word alignment, then whole words, then the tail.
    while (b < end && (to_addr(b) & (sizeof(std::uint64_t) - 1)) != 0) {
        if (*b != 0)
            return b;
        ++b;
    }
    const auto* w = reinterpret_cast<const std::uint64_t*>(b);
    while (b + sizeof(std::uint64_t) <= end) {
        if (*w != 0)
            break;
        ++w;
        b += sizeof(std::uint64_t);
    }
    while (b < end) {
        if (*b != 0)
            return b;
        ++b;
    }
    return nullptr;
}

}  // namespace msw::sweep
