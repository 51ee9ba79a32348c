/**
 * @file
 * Bit-manipulation and alignment helpers used throughout the allocator and
 * sweeper. Everything is constexpr and branch-light; these sit on hot paths.
 */
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/check.h"

namespace msw {

/** True if @p x is a (nonzero) power of two. */
constexpr bool
is_pow2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** Round @p x up to the next multiple of power-of-two @p align. */
constexpr std::uint64_t
align_up(std::uint64_t x, std::uint64_t align)
{
    return (x + align - 1) & ~(align - 1);
}

/** Round @p x down to a multiple of power-of-two @p align. */
constexpr std::uint64_t
align_down(std::uint64_t x, std::uint64_t align)
{
    return x & ~(align - 1);
}

/** True if @p x is a multiple of power-of-two @p align. */
constexpr bool
is_aligned(std::uint64_t x, std::uint64_t align)
{
    return (x & (align - 1)) == 0;
}

/** ceil(a / b) for positive integers. */
constexpr std::uint64_t
ceil_div(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/** floor(log2(x)); @p x must be nonzero. */
constexpr unsigned
log2_floor(std::uint64_t x)
{
    return 63u - static_cast<unsigned>(std::countl_zero(x));
}

/** Pointer <-> integer conversions kept in one place. */
inline std::uintptr_t
to_addr(const void* p)
{
    return reinterpret_cast<std::uintptr_t>(p);
}

inline void*
to_ptr(std::uintptr_t a)
{
    return reinterpret_cast<void*>(a);
}

/**
 * Typed view of an address. The only sanctioned integer->pointer
 * conversion outside the VM layer: keeping every such cast behind this
 * helper (enforced by msw-analyze rule MSW-UB-PTR-CAST) confines the
 * provenance-laundering spots to one grep-able place.
 */
template <typename T>
inline T*
to_ptr_of(std::uintptr_t a)
{
    return reinterpret_cast<T*>(a);
}

}  // namespace msw
