/**
 * @file
 * The allocator interface shared by every system under evaluation.
 *
 * JadeHeap (the jemalloc-style substrate), MineSweeper, MarkUs and FFMalloc
 * all implement this interface, which is what lets the workload driver and
 * every benchmark binary treat them interchangeably — the reproduction of
 * the paper's "drop-in" property at the library level.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace msw::alloc {

/** Point-in-time memory accounting for an allocator. */
struct AllocatorStats {
    /** Bytes handed out to the application and not yet truly freed. */
    std::size_t live_bytes = 0;
    /** Bytes of heap pages with physical backing (the RSS the allocator
     *  itself is responsible for). */
    std::size_t committed_bytes = 0;
    /** Out-of-line metadata footprint. */
    std::size_t metadata_bytes = 0;
    /** Bytes held in quarantine awaiting proof of safety (0 for
     *  non-quarantining allocators). */
    std::size_t quarantine_bytes = 0;
    /** Number of sweeps/marking passes performed so far. */
    std::uint64_t sweeps = 0;
    /** malloc calls served. */
    std::uint64_t alloc_calls = 0;
    /** free calls observed (including double frees absorbed). */
    std::uint64_t free_calls = 0;
};

/** Abstract malloc/free provider. Implementations are thread-safe. */
class Allocator
{
  public:
    virtual ~Allocator() = default;

    /** Allocate at least @p size bytes (size 0 behaves as size 1). */
    virtual void* alloc(std::size_t size) = 0;

    /** Free a pointer previously returned by alloc(). nullptr is a no-op. */
    virtual void free(void* ptr) = 0;

    /** Usable size of a live allocation. */
    virtual std::size_t usable_size(const void* ptr) const = 0;

    /** Allocate with alignment (power of two, <= one page). */
    virtual void* alloc_aligned(std::size_t alignment, std::size_t size) = 0;

    /**
     * Resize an allocation: in place when @p new_size still fills more
     * than half of the block, else allocate-copy-free. On failure returns
     * nullptr and leaves the original block valid (the realloc contract).
     */
    void*
    realloc(void* ptr, std::size_t new_size)
    {
        if (ptr == nullptr)
            return alloc(new_size);
        if (new_size == 0)
            new_size = 1;
        const std::size_t old_usable = usable_size(ptr);
        if (new_size <= old_usable && new_size * 2 > old_usable)
            return ptr;
        void* fresh = alloc(new_size);
        if (fresh == nullptr)
            return nullptr;
        std::memcpy(fresh, ptr, old_usable < new_size ? old_usable : new_size);
        free(ptr);
        return fresh;
    }

    /** Current statistics snapshot. */
    virtual AllocatorStats stats() const = 0;

    /** Human-readable scheme name ("jade", "minesweeper", ...). */
    virtual const char* name() const = 0;

    /**
     * Quiesce background machinery (finish in-flight sweeps, purge).
     * Benchmarks call this before their final memory measurements.
     */
    virtual void flush() {}
};

}  // namespace msw::alloc
