/**
 * @file
 * System-under-test factory: uniform handles for the four allocation
 * systems the paper evaluates against each other (baseline JadeHeap,
 * MineSweeper, MarkUs, FFMalloc), so the workload executor and every
 * benchmark treat them identically.
 */
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "alloc/allocator.h"
#include "core/options.h"
#include "metrics/stat_list.h"

namespace msw::workload {

/** A constructed system plus the capability hooks the executor needs. */
struct System {
    std::string name;
    std::unique_ptr<alloc::Allocator> allocator;

    /** Register a root range (no-op for systems that do not scan). */
    std::function<void(const void*, std::size_t)> add_root =
        [](const void*, std::size_t) {};

    /**
     * Remove a registered root range. Must be called before the range's
     * memory is released: sweeps scan registered roots, and scanning a
     * recycled region would fault.
     */
    std::function<void(const void*)> remove_root = [](const void*) {};

    /** Register/unregister the calling thread as a mutator. */
    std::function<void()> register_thread = [] {};
    std::function<void()> unregister_thread = [] {};

    /** Quiesce background machinery before final measurements. */
    std::function<void()> flush = [] {};

    /** Every runtime counter plus the sweep/marking-pass count (all
        zero for the JadeHeap baseline, which keeps none). */
    std::function<metrics::StatSnapshot()> counters = [] {
        return metrics::StatSnapshot{};
    };
};

/** Identifiers accepted by make_system(). */
enum class SystemKind {
    kBaseline,     ///< JadeHeap alone (the paper's jemalloc baseline).
    kMineSweeper,  ///< Fully concurrent MineSweeper (paper default).
    kMineSweeperMostly,  ///< Mostly concurrent (stop-the-world) version.
    kMarkUs,
    kFFMalloc,
};

/** Human-readable name for a kind ("baseline", "minesweeper", ...). */
const char* system_kind_name(SystemKind kind);

/**
 * Construct a system. @p msw_options customises MineSweeper variants
 * (ablation/partial configurations); ignored for the others.
 */
System make_system(SystemKind kind,
                   const core::Options& msw_options = core::Options{});

}  // namespace msw::workload
