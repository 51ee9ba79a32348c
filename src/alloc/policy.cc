#include "alloc/policy.h"

#include <sys/random.h>
#include <unistd.h>

#include <bit>
#include <cstdlib>
#include <cstring>

#include "sweep/sweeper.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/sigsafe_io.h"

namespace msw::alloc {

namespace {

/**
 * Per-process canary key, drawn once when the hardened policy is first
 * resolved (S2malloc-style): knowing a heap address does not let an
 * attacker compute its canary. A fork child inherits it with the heap
 * whose canaries it keys.
 */
std::uint64_t g_canary_secret = 0;

void
draw_canary_secret()
{
    // getrandom is a plain syscall (no allocation), so this is safe
    // during LD_PRELOAD bootstrap; the clock-seeded engine covers a
    // kernel that refuses it.
    std::uint64_t secret = 0;
    if (::getrandom(&secret, sizeof(secret), GRND_NONBLOCK) !=
        static_cast<ssize_t>(sizeof(secret))) {
        secret = thread_rng().next_u64();
    }
    g_canary_secret = secret;
}

/**
 * Keyed tail byte shared by the allocation canary and the quarantine
 * fill: odd (never zero, so it is distinguishable from the zero fill and
 * a zeroing overflow trips it) and a keyed hash of the slot address, so
 * a constant spray forged for one slot fails on another.
 */
unsigned char
tail_byte(std::uintptr_t base)
{
    const std::uint64_t h =
        ((base >> 4) ^ g_canary_secret) * 0x9e3779b97f4a7c15ull;
    return static_cast<unsigned char>((h >> 56) | 0x01u);
}

// ---------------------------------------------------- hardened hooks

unsigned
hardened_choose_slot(const std::uint64_t* slot_bits, unsigned nslots,
                     unsigned free_slots)
{
    // Uniformly pick the k-th free slot; slabs have at most 512 slots,
    // so this walks <= 8 bitmap words.
    std::uint64_t k = thread_rng().next_below(free_slots);
    const unsigned words = (nslots + 63) / 64;
    for (unsigned w = 0; w < words; ++w) {
        std::uint64_t free_bits = ~slot_bits[w];
        if (w == words - 1 && (nslots % 64) != 0)
            free_bits &= (std::uint64_t{1} << (nslots % 64)) - 1;
        const auto avail = static_cast<unsigned>(std::popcount(free_bits));
        if (k >= avail) {
            k -= avail;
            continue;
        }
        for (; k > 0; --k)
            free_bits &= free_bits - 1;
        return w * 64 + static_cast<unsigned>(std::countr_zero(free_bits));
    }
    MSW_CHECK(false);  // free_slots overran the bitmap
    return 0;
}

unsigned
hardened_choose_cached(unsigned count)
{
    return static_cast<unsigned>(thread_rng().next_below(count));
}

void
hardened_fill_free(void* ptr, std::size_t usable)
{
    auto* p = static_cast<unsigned char*>(ptr);
    std::memset(p, 0, usable - 1);
    p[usable - 1] = tail_byte(to_addr(ptr));
}

const void*
hardened_check_free_fill(const void* ptr, std::size_t usable)
{
    if (const void* bad = sweep::find_nonzero(ptr, usable - 1))
        return bad;
    const auto* p = static_cast<const unsigned char*>(ptr);
    if (p[usable - 1] != tail_byte(to_addr(ptr)))
        return p + (usable - 1);
    return nullptr;
}

void
hardened_arm_canary(void* ptr, std::size_t usable)
{
    static_cast<unsigned char*>(ptr)[usable - 1] = tail_byte(to_addr(ptr));
}

bool
hardened_check_canary(const void* ptr, std::size_t usable)
{
    return static_cast<const unsigned char*>(ptr)[usable - 1] ==
           tail_byte(to_addr(ptr));
}

void
hardened_shuffle(void* base, std::size_t count, std::size_t elem_size)
{
    // Type-erased Fisher-Yates; quarantine entries are a few words, so a
    // small stack buffer covers every caller.
    unsigned char tmp[64];
    MSW_CHECK(elem_size <= sizeof(tmp));
    auto* a = static_cast<unsigned char*>(base);
    Rng& rng = thread_rng();
    for (std::size_t i = count; i > 1; --i) {
        const std::size_t j = rng.next_below(i);
        if (j == i - 1)
            continue;
        unsigned char* x = a + j * elem_size;
        unsigned char* y = a + (i - 1) * elem_size;
        std::memcpy(tmp, x, elem_size);
        std::memcpy(x, y, elem_size);
        std::memcpy(y, tmp, elem_size);
    }
}

}  // namespace

const AllocPolicy&
default_policy()
{
    static constexpr AllocPolicy policy{};
    return policy;
}

const AllocPolicy&
hardened_policy()
{
    // Every hook that reads the canary key is reached through this
    // table, so drawing the key here orders it before any use.
    [[maybe_unused]] static const bool keyed = (draw_canary_secret(), true);
    static constexpr AllocPolicy policy{
        .name = "hardened",
        .choose_slot = &hardened_choose_slot,
        .choose_cached = &hardened_choose_cached,
        .fill_free = &hardened_fill_free,
        .check_free_fill = &hardened_check_free_fill,
        .arm_canary = &hardened_arm_canary,
        .check_canary = &hardened_check_canary,
        .shuffle = &hardened_shuffle,
    };
    return policy;
}

void
redraw_canary_secret_for_testing()
{
    draw_canary_secret();
}

const AllocPolicy*
policy_by_name(const char* name)
{
    if (name == nullptr || std::strcmp(name, "default") == 0)
        return &default_policy();
    if (std::strcmp(name, "hardened") == 0)
        return &hardened_policy();
    return nullptr;
}

const AllocPolicy&
policy_from_env()
{
    const char* env = std::getenv("MSW_POLICY");
    if (env == nullptr || *env == '\0')
        return default_policy();
    if (const AllocPolicy* p = policy_by_name(env))
        return *p;
    MSW_LOG_WARN("unknown MSW_POLICY '%s'; using the default policy", env);
    return default_policy();
}

void
policy_violation(const char* what, const void* addr)
{
    // Runs inside free()/the sweep, possibly self-hosted under
    // LD_PRELOAD: report without allocating or taking locks.
    {
        util::SigsafeWriter w(STDERR_FILENO);
        w.str("msw: allocation policy violation: ");
        w.str(what);
        w.str(" at 0x");
        w.hex(to_addr(addr));
        w.str("\n");
    }
    if (const char* env = std::getenv("MSW_POLICY_FATAL")) {
        if (env[0] == '0' && env[1] == '\0')
            return;  // observe-only mode: the caller counts the event
    }
    std::abort();
}

}  // namespace msw::alloc
