/**
 * @file
 * AllocPolicy: the policy/mechanism seam of the allocation stack.
 *
 * The substrate (bins, thread caches) and the quarantine runtime own the
 * *mechanism* — slab bitmaps, cache shards, quarantine epochs. Decisions
 * that are *policy* — which free slot a slab hands out, which cached
 * object a thread cache reuses, what a freed block is filled with, the
 * order quarantined entries are released in — route through the nullable
 * function pointers below.
 *
 * A null hook means "mechanism default": the built-in first-fit slot
 * scan, LIFO cache reuse, plain zero fill, insertion-order release. The
 * default policy is the all-null table, so selecting it costs the fast
 * path exactly one well-predicted null-check branch per hook site and
 * the mechanism code stays inlined — there is no virtual dispatch to a
 * "do the default" function.
 *
 * The hardened policy (S2malloc/FreeGuard-style) fills every hook:
 *  - randomized in-slab slot placement and randomized thread-cache
 *    reuse order (breaks heap-layout grooming);
 *  - a canary in the reserved tail byte of every allocation (the +1
 *    end-pointer slack byte the quarantine runtime never reports as
 *    usable), keyed by the slot address and a per-process secret drawn
 *    when the policy is first resolved, checked at free() — a
 *    one-byte-or-more heap overflow is caught at the latest when the
 *    block is freed;
 *  - a verified quarantine fill: freed blocks are zeroed (preserving
 *    the §4.1 unpinning semantics) with the tail canary re-armed, and
 *    the sweep re-validates the whole fill before releasing an entry,
 *    so any use-after-free *write* into quarantined memory is detected;
 *  - Fisher-Yates shuffling of the locked-in quarantine, so release
 *    (and therefore reuse) order is unpredictable.
 *
 * Policies are immutable process-lifetime singletons; configurations
 * carry `const AllocPolicy*` and a null pointer means "resolve from the
 * MSW_POLICY environment variable" (default | hardened).
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace msw::alloc {

struct AllocPolicy {
    /** Selector name ("default", "hardened"). */
    const char* name = "default";

    /**
     * Pick a free slot in a slab whose occupancy bitmap is @p slot_bits
     * (set bit = allocated; (nslots+63)/64 words, tail bits past nslots
     * are garbage). @p free_slots >= 1 free slots exist. Returns the
     * chosen slot index. Called under the bin lock; must not block or
     * allocate. Null: lowest-index-first scan.
     */
    unsigned (*choose_slot)(const std::uint64_t* slot_bits, unsigned nslots,
                            unsigned free_slots) = nullptr;

    /**
     * Pick which of @p count >= 1 cached objects a thread cache reuses
     * (index in [0, count)). Null: LIFO (top of the stack).
     */
    unsigned (*choose_cached)(unsigned count) = nullptr;

    /**
     * Fill a block entering quarantine (@p ptr is the allocation base;
     * @p usable its full slot/extent size). Only consulted when zeroing
     * is enabled; the fill must keep the §4.1 property that quarantined
     * memory holds no heap pointers. Null: memset to zero.
     */
    void (*fill_free)(void* ptr, std::size_t usable) = nullptr;

    /**
     * Verify a quarantined block still carries the fill_free() pattern.
     * Returns the first mismatching byte, or null when intact. Called by
     * the sweep on entries about to be released.
     */
    const void* (*check_free_fill)(const void* ptr,
                                   std::size_t usable) = nullptr;

    /**
     * Arm the allocation canary. @p usable is the substrate's slot size;
     * the runtime reserves its last byte (usable_size() reports one byte
     * less), which is where the canary lives.
     */
    void (*arm_canary)(void* ptr, std::size_t usable) = nullptr;

    /** Check the allocation canary at free(); false = overwritten. */
    bool (*check_canary)(const void* ptr, std::size_t usable) = nullptr;

    /**
     * Permute an array of @p count elements of @p elem_size bytes
     * (type-erased so the quarantine layer needs no policy types).
     * Used on the locked-in quarantine before release.
     */
    void (*shuffle)(void* base, std::size_t count,
                    std::size_t elem_size) = nullptr;
};

/** The all-null table: bit-identical to the pre-policy behaviour. */
const AllocPolicy& default_policy();

/** S2malloc/FreeGuard-style hardened policy (see file comment). */
const AllocPolicy& hardened_policy();

/**
 * Test hook: draw a fresh canary secret. Canaries armed before the call
 * no longer verify, so only a test with no live hardened heap may use it.
 */
void redraw_canary_secret_for_testing();

/** Policy for @p name, or null if unknown. Null name = default. */
const AllocPolicy* policy_by_name(const char* name);

/** Resolve MSW_POLICY (default|hardened); warns once per unknown value
    and falls back to the default policy. */
const AllocPolicy& policy_from_env();

/** Explicit policy if set, else the environment's choice. */
inline const AllocPolicy&
resolve_policy(const AllocPolicy* explicit_policy)
{
    return explicit_policy != nullptr ? *explicit_policy
                                      : policy_from_env();
}

/**
 * Report a canary/fill violation detected by a policy check. Writes an
 * async-signal-safe report to stderr and aborts — heap corruption has
 * been proven, continuing would be exploitable — unless
 * MSW_POLICY_FATAL=0 is set (testing/monitoring), in which case it
 * returns and the caller merely counts the event.
 */
void policy_violation(const char* what, const void* addr);

}  // namespace msw::alloc
