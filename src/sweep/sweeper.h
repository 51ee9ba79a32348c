/**
 * @file
 * Parallel linear sweeping (paper §3.1 phase one, §4.4).
 *
 * The marking phase is embarrassingly parallel: the scannable address
 * ranges (committed heap pages, registered roots, thread stacks) are cut
 * into chunks and handed to a pool of one main sweeper plus N helper
 * threads. Each worker interprets every aligned 64-bit word as a potential
 * pointer; values landing inside the heap reservation set the target's
 * shadow-map bit. No type information, no transitive traversal — this
 * sequential, branch-light loop is the paper's key efficiency claim over
 * MarkUs-style marking.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

#include "sweep/roots.h"
#include "sweep/shadow_map.h"

namespace msw::sweep {

/** Statistics from one marking pass. */
struct MarkStats {
    std::uint64_t bytes_scanned = 0;
    std::uint64_t pointers_found = 0;
};

/**
 * A persistent pool of helper threads. run() executes a job on every
 * helper and on the calling thread, returning when all are done.
 */
class SweepWorkers
{
  public:
    /** @param helpers Number of helper threads (0 = caller only). */
    explicit SweepWorkers(unsigned helpers);
    ~SweepWorkers();

    SweepWorkers(const SweepWorkers&) = delete;
    SweepWorkers& operator=(const SweepWorkers&) = delete;

    /** Total workers including the caller of run(). */
    unsigned
    count() const
    {
        return static_cast<unsigned>(threads_.size()) + 1;
    }

    /**
     * Run @p fn(worker_index) on every worker; index 0 is the calling
     * thread. Blocks until all invocations return. Not reentrant.
     */
    void run(const std::function<void(unsigned)>& fn);

    /** Cumulative CPU time burned by helper threads (ns). */
    std::uint64_t
    helper_cpu_ns() const
    {
        // msw-relaxed(stat-cells): statistics read; needs no ordering.
        return helper_cpu_ns_.load(std::memory_order_relaxed);
    }

    /**
     * atfork integration (called by core/lifecycle). prepare_fork()
     * waits out any dispatched job and holds mu_ across fork();
     * parent_after_fork() releases it. child_after_fork() releases it
     * and discards the inherited helper handles — the pool degrades to
     * caller-only execution in the child (count() == 1), which is the
     * documented helpers=0 mode; it is never re-grown because a child
     * of a multi-threaded fork should not spawn threads from an atfork
     * handler.
     */
    void prepare_fork();
    void parent_after_fork();
    void child_after_fork();

  private:
    void worker_loop(unsigned index);

    std::vector<std::thread> threads_;
    // Rank kCoreWorkers: run() is invoked during the STW window, i.e.
    // while the roots lock (kCoreRoots) is held.
    Mutex mu_{util::LockRank::kCoreWorkers};
    // condition_variable_any: the annotated msw::Mutex is not a
    // std::mutex, which plain std::condition_variable requires.
    std::condition_variable_any cv_work_;
    std::condition_variable_any cv_done_;
    const std::function<void(unsigned)>* job_ MSW_GUARDED_BY(mu_) = nullptr;
    std::uint64_t generation_ MSW_GUARDED_BY(mu_) = 0;
    unsigned running_ MSW_GUARDED_BY(mu_) = 0;
    bool shutdown_ MSW_GUARDED_BY(mu_) = false;
    std::atomic<std::uint64_t> helper_cpu_ns_{0};
};

/**
 * The linear marker. Stateless apart from its shadow-map / heap-bounds
 * configuration; mark_ranges() may be called repeatedly.
 */
class Marker
{
  public:
    Marker(ShadowMap* shadow, std::uintptr_t heap_base,
           std::uintptr_t heap_end)
        : shadow_(shadow), heap_base_(heap_base), heap_end_(heap_end)
    {}

    /**
     * Scan @p ranges with @p workers (nullptr = caller only), marking
     * every word that points into [heap_base, heap_end).
     */
    MarkStats mark_ranges(const std::vector<Range>& ranges,
                          SweepWorkers* workers);

    /** Scan a single range on the calling thread. */
    MarkStats mark_one(const Range& range);

  private:
    /**
     * Conservative scan: reads arbitrary resident memory (other threads'
     * stacks included) that mutators write concurrently, so ASan and
     * TSan instrumentation are off here.
     */
    MSW_NO_SANITIZE_ADDRESS MSW_NO_SANITIZE_THREAD
    void scan_chunk(std::uintptr_t lo, std::uintptr_t hi,
                    MarkStats* stats) const;

    ShadowMap* shadow_;
    std::uintptr_t heap_base_;
    std::uintptr_t heap_end_;
};

/** Split ranges into chunks of at most @p chunk_bytes for work sharing. */
std::vector<Range> chunk_ranges(const std::vector<Range>& ranges,
                                std::size_t chunk_bytes);

/** Thread CPU time of the calling thread in nanoseconds. */
std::uint64_t thread_cpu_ns();

/**
 * First nonzero byte in [p, p+n), or null when the range is all zero.
 * Word-at-a-time linear scan, the same access pattern as the mark
 * phase. The hardened allocation policy validates with this that a
 * quarantined block kept its free-time fill until release — a nonzero
 * byte there is a proven use-after-free write.
 */
const void* find_nonzero(const void* p, std::size_t n);

}  // namespace msw::sweep
