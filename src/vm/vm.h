/**
 * @file
 * Page-granular virtual-memory primitives.
 *
 * Everything above this layer thinks in terms of a *reservation*: a large
 * contiguous range of virtual addresses obtained once, with physical memory
 * committed and decommitted page-wise inside it. This mirrors how the paper's
 * modified jemalloc used sbrk to keep allocation extents contiguous, which
 * is what makes MineSweeper's flat shadow map and "is this value a heap
 * pointer?" range test cheap.
 *
 * State model per page inside a reservation:
 *  - reserved:    PROT_NONE, no physical backing (initial state)
 *  - committed:   PROT_READ|WRITE, demand-backed
 *  - decommitted: PROT_NONE, physical backing discarded
 *
 * decommit() both discards the physical pages (MADV_DONTNEED) and removes
 * access permissions, exactly the decommit/commit pair MineSweeper installs
 * through jemalloc's extent-hook API (paper §4.5).
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace msw::vm {

/**
 * Outcome of a page-permission / backing operation.
 *
 * kRetry reports the transient failures (ENOMEM, EAGAIN — kernel out of
 * memory or out of VMA slots) that a quarantining allocator both causes
 * and must survive; callers back off, reclaim, and try again. Permanent
 * errors (bad address, EACCES) still terminate via panic(): they are
 * allocator bugs, not memory pressure.
 */
enum class [[nodiscard]] VmStatus {
    kOk = 0,
    kRetry,
};

/** Base-2 log of the page size this library is built for. */
inline constexpr unsigned kPageShift = 12;

/** Page size in bytes (4 KiB; verified against the OS at startup). */
inline constexpr std::size_t kPageSize = std::size_t{1} << kPageShift;

/** Round a byte count up to whole pages. */
constexpr std::size_t
pages_for(std::size_t bytes)
{
    return (bytes + kPageSize - 1) >> kPageShift;
}

/**
 * A contiguous reserved range of virtual address space.
 *
 * Movable, not copyable; unmaps on destruction. All range arguments must be
 * page-aligned and lie inside the reservation.
 */
class Reservation
{
  public:
    Reservation() = default;

    /**
     * Reserve @p bytes of address space (rounded up to pages) with no
     * physical backing and no access permissions. Terminates the process
     * via fatal() if the reservation cannot be made.
     */
    static Reservation reserve(std::size_t bytes);

    Reservation(Reservation&& other) noexcept;
    Reservation& operator=(Reservation&& other) noexcept;
    Reservation(const Reservation&) = delete;
    Reservation& operator=(const Reservation&) = delete;
    ~Reservation();

    /** Start address (page-aligned), or 0 if empty. */
    std::uintptr_t base() const { return base_; }

    /** Size in bytes (page multiple). */
    std::size_t size() const { return size_; }

    /** One past the last byte. */
    std::uintptr_t end() const { return base_ + size_; }

    /** True if @p addr lies inside the reservation. */
    bool
    contains(std::uintptr_t addr) const
    {
        return addr >= base_ && addr < base_ + size_;
    }

    /** Make [addr, addr+len) readable+writable and demand-backed. */
    VmStatus commit(std::uintptr_t addr, std::size_t len) const;

    /**
     * commit() with a bounded retry-with-backoff loop, terminating via
     * fatal() only once the retries are exhausted. For startup paths
     * (metadata spaces) that cannot run without the pages.
     */
    void commit_must(std::uintptr_t addr, std::size_t len) const;

    /**
     * Discard physical backing of [addr, addr+len) and revoke access.
     * Subsequent commit() restores zero-filled pages.
     */
    VmStatus decommit(std::uintptr_t addr, std::size_t len) const;

    /**
     * Discard physical backing but keep the pages accessible (they refault
     * as zero pages) — jemalloc's default "purge" behaviour, which
     * MineSweeper replaces with decommit/commit (paper §4.5).
     */
    VmStatus purge_keep_accessible(std::uintptr_t addr,
                                   std::size_t len) const;

    /** Restore read+write permissions on [addr, addr+len). */
    VmStatus protect_rw(std::uintptr_t addr, std::size_t len) const;

    /** Unmap the whole reservation (idempotent; no-op when empty). */
    void release();

  private:
    Reservation(std::uintptr_t base, std::size_t size)
        : base_(base), size_(size)
    {}

    /**
     * Validate [addr, addr+len). Returns false — callers no-op — for an
     * empty reservation or a zero-length range, so released/moved-from
     * objects stay safe to call into; misuse of a live reservation is
     * still a checked programming error.
     */
    bool check_range(std::uintptr_t addr, std::size_t len) const;

    std::uintptr_t base_ = 0;
    std::size_t size_ = 0;
};

/** Current resident set size of this process in bytes (from /proc). */
std::size_t current_rss_bytes();

}  // namespace msw::vm
