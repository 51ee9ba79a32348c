/**
 * @file
 * The layered UAF-runtime base classes.
 *
 * Every system under evaluation used to re-implement the same plumbing by
 * hand (MarkUs duplicated MineSweeper's hooks, epochs, root registration
 * and stats surface almost line for line). The hierarchy now is:
 *
 *   alloc::Allocator                    the drop-in malloc interface
 *     └─ RuntimeBase                    sharded statistics surface
 *          ├─ FFMalloc                  (one-time allocator; no quarantine)
 *          └─ QuarantineRuntime         jade substrate + quarantine epochs
 *               │                       + committed-page hooks + roots
 *               │                       + reclaimer + sweep controller
 *               ├─ MineSweeper          linear sweep (paper §3–§4)
 *               └─ MarkUs               transitive conservative marking
 *
 * QuarantineRuntime owns the *mechanism* layers extracted from the old
 * god-object — SweepController (when sweeps run), Reclaimer (how memory
 * comes back) and StatCells (how the fast path counts) — the whole
 * mutator path both runtimes share (alloc with its +1 B slack and canary
 * arm, free with its double-free de-dup, canary check and quarantine
 * insert, the sweep trigger and the out-of-memory ladder) and the frame
 * every sweep pass shares (open, dirty-scan, stop-the-world recheck,
 * then drain, release and close in one call). The derived classes keep
 * only how a sweep finds dangling pointers: the sweep function with its
 * mark strategy, and the Config values their options map onto.
 */
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/jade_allocator.h"
#include "core/reclaimer.h"
#include "core/stat_cells.h"
#include "core/sweep_controller.h"
#include "metrics/trace_ring.h"
#include "quarantine/quarantine.h"
#include "sweep/dirty_tracker.h"
#include "sweep/page_access_map.h"
#include "sweep/roots.h"
#include "sweep/shadow_map.h"

namespace msw::core {

/**
 * Statistics surface shared by every UAF runtime: a sharded counter block
 * replacing the per-class contended atomics.
 */
class RuntimeBase : public alloc::Allocator
{
  public:
    /** The sharded counter block (tests and benchmarks introspect it). */
    StatCells& stat_cells() { return stats_; }
    const StatCells& stat_cells() const { return stats_; }

    /**
     * Every counter plus the completed sweep count (zero for runtimes
     * that never sweep). Relaxed loads into a stack struct only, so it is
     * async-signal-safe (the SIGUSR2 dump calls it).
     */
    virtual metrics::StatSnapshot counters() const;

  protected:
    RuntimeBase() = default;

    mutable StatCells stats_;
};

/**
 * Shared plumbing for quarantine-based runtimes sitting on the JadeHeap
 * substrate: the mutator path (alloc, free, the sweep trigger, the
 * out-of-memory ladder), the committed-page hooks, the quarantine epochs
 * and double-free bitmap, root/thread registration, the reclaimer and
 * the sweep controller. Derived classes provide the sweep function.
 */
class QuarantineRuntime : public RuntimeBase
{
  public:
    struct Config {
        alloc::JadeAllocator::Options jade{};
        std::size_t tl_buffer_entries = 64;
        Reclaimer::Config reclaim{};
        SweepController::Config control{};
        /** Create a dirty tracker (mostly-concurrent marking). */
        bool make_tracker = false;
        /**
         * Allocation policy for the whole runtime (substrate placement,
         * quarantine fill/canary, release ordering). The constructor
         * resolves this once — from jade.policy or MSW_POLICY — and
         * copies the resolved pointer into jade.policy and
         * reclaim.policy so every layer agrees; never null afterwards.
         */
        const alloc::AllocPolicy* policy = nullptr;

        // --- Trigger (paper §3.2, §4.2, §5.7) ----------------------------

        /** Sweep when quarantine exceeds this fraction of the live heap. */
        double sweep_threshold = 0.15;
        /** Do not sweep below this many quarantined bytes. */
        std::size_t min_sweep_bytes = std::size_t{1} << 20;
        /** Sweep when unmapped quarantine exceeds this multiple of the
            committed footprint; 0 disables the unmapped trigger. */
        double unmapped_factor = 0;
        /** Pause allocations while quarantine exceeds this multiple of
            the live heap and a sweep runs; 0 disables pausing. */
        double pause_factor = 0;

        // --- Out-of-memory ladder ----------------------------------------

        /** Substrate attempts before alloc() returns nullptr; each after
            the first runs an emergency sweep and purge first. */
        unsigned alloc_retry_attempts = 4;
        /** Backoff before each attempt, doubled per attempt (µs). */
        unsigned alloc_retry_backoff_us = 100;

        // --- Sweep switches (the Fig 15-17 ablations) ----------------------

        /** False: free() forwards to the substrate after its zeroing or
            unmapping, quarantining nothing (Fig 17 versions 1-2). */
        bool quarantine_enabled = true;
        /** False: the release phase ignores the mark bits and releases
            every entry (Fig 17 versions 3-4); the sweep function skips
            its mark. */
        bool sweep_enabled = true;
        /** False: entries found referenced are released anyway (Fig 17
            version 5). Unsafe; measurement only. */
        bool keep_failed = true;
        /** Purge what the last epoch left unused after each sweep (§4.5). */
        bool purging = true;
    };

    ~QuarantineRuntime() override;

    // --------------------------------------------------------- Allocator

    void* alloc(std::size_t size) override;
    void* alloc_aligned(std::size_t alignment, std::size_t size) override;
    void free(void* ptr) override;

    // ------------------------------------------------------ Roots/threads

    /** Register a root range to be scanned by sweeps (globals, tables). */
    void add_root(const void* base, std::size_t len);

    /** Remove a registered root range. */
    void remove_root(const void* base);

    /**
     * Register the calling thread: its stack is scanned by sweeps and it
     * participates in stop-the-world phases (mostly-concurrent mode).
     */
    void register_mutator_thread();

    /** Unregister the calling thread (required before it exits). */
    void unregister_mutator_thread();

    // ---------------------------------------------------------- Surface

    std::size_t usable_size(const void* ptr) const override;
    alloc::AllocatorStats stats() const override;
    metrics::StatSnapshot counters() const override;

    /** Complete any in-flight sweep and flush quarantine buffers. */
    void flush() override;

    /** Flush this thread's quarantine buffer, then wait for a sweep
        that starts after the call. */
    void force_sweep();

    /** True while an allocation with this base is quarantined. */
    bool
    in_quarantine(const void* ptr) const
    {
        return quarantine_bitmap_.test(to_addr(ptr));
    }

    /** The substrate allocator (tests and benchmarks introspect it). */
    alloc::JadeAllocator& substrate() { return jade_; }
    const alloc::JadeAllocator& substrate() const { return jade_; }

    /** Registered mutator threads (tests assert lifecycle draining). */
    std::size_t
    mutator_thread_count() const
    {
        return roots_.num_threads();
    }

    /**
     * Memory regions owned by this instance's machinery (shadow maps,
     * allocator metadata, page maps). Conservative root scans must skip
     * them: their contents are bit-patterns and metadata, not program
     * pointers.
     */
    std::vector<sweep::Range> internal_regions() const;

  protected:
    /**
     * @param sweep_fn One full sweep/mark pass; stored, not invoked — the
     *        derived constructor calls controller_.start() once every
     *        member the pass touches exists.
     */
    QuarantineRuntime(const Config& config,
                      std::function<void()> sweep_fn);

    // ------------------------------------------------------- Sweep frame
    // The steps every sweep pass shares, in the order a pass runs them;
    // only the sweep function calls them (serialized by the sweep token).

    /** Begin the scan epoch and lock the quarantine in (locked_in_);
        false, with the epoch closed again, when nothing is quarantined. */
    bool open_sweep();

    /** Dirty-scan phase: arm the write tracker, if any. */
    void arm_tracker();

    /** Stop-the-world recheck (§4.3): hand @p mark what may have gained a
        pointer since arm_tracker() — dirtied pages, stacks, roots the
        tracker misses (resident pages only), parked registers. */
    void stw_recheck(
        const std::function<void(const std::vector<sweep::Range>&)>& mark);

    /**
     * End the pass, on this thread: drain the deferred unmaps, release
     * every locked-in entry with no marked granule (the release phase,
     * with the hardened fill audit), keep the rest quarantined, clear the
     * marks, end the epoch and, with Config::purging, purge what the last
     * epoch left unused. Counts the pass and its CPU (+ @p helper_cpu_ns,
     * the helpers' mark).
     */
    void finish_sweep(std::uint64_t helper_cpu_ns);

    /** Count @p ns in @p stat and trace @p event with it. */
    void record_phase(Stat stat, metrics::TraceEvent event, std::uint64_t ns,
                      std::uint64_t arg = 0);

    Config config_;
    alloc::JadeAllocator jade_;
    sweep::ShadowMap mark_bits_;         ///< Per-sweep mark bits.
    sweep::ShadowMap quarantine_bitmap_; ///< Double-free de-dup.
    sweep::PageAccessMap access_map_;
    sweep::RootRegistry roots_;
    quarantine::Quarantine quarantine_;
    std::unique_ptr<sweep::DirtyTracker> tracker_;
    Reclaimer reclaimer_;
    SweepController controller_;
    /**
     * The sweep set, reused across sweeps so lock_in() stops allocating
     * once warm. Touched only by the sweep function, which the
     * controller's sweep token serializes.
     */
    std::vector<quarantine::Entry> locked_in_;
    /** Clocks open_sweep() starts for finish_sweep(). */
    std::uint64_t sweep_t0_ns_ = 0;
    std::uint64_t sweep_cpu0_ns_ = 0;

  private:
    class Hooks;

    /** alloc() and alloc_aligned() (@p alignment 0: none): op timing,
        allocation pausing, the +1 B slack and the canary arm. */
    void* alloc(std::size_t size, std::size_t alignment);

    /** Slow path once the substrate returns nullptr: retry with backoff,
        interleaving emergency reclaims; nullptr only when exhausted. */
    void* alloc_slow(std::size_t request, std::size_t alignment);

    /** Synchronous sweep + full purge to free memory *now*. */
    void emergency_reclaim();

    /** free() body; the public entry only adds optional op timing. */
    void free_impl(void* ptr);

    /** Request a sweep once quarantine passes the Config's trigger. */
    void maybe_trigger_sweep();

    std::unique_ptr<Hooks> hooks_;
};

}  // namespace msw::core
