#include "util/rng.h"

#include <unistd.h>

#include <atomic>

#include "util/clock.h"

namespace msw {

namespace {

/** Bumped in the atfork child so stale thread engines reseed. */
std::atomic<std::uint64_t> g_rng_generation{1};

std::uint64_t
entropy_seed()
{
    // Clock + pid + a per-seed counter, whitened through splitmix64. No
    // /dev/urandom dependency: this must work during early LD_PRELOAD
    // bootstrap and right after fork.
    static std::atomic<std::uint64_t> counter{0};
    SplitMix64 sm(util::monotonic_ns() ^
                  (static_cast<std::uint64_t>(::getpid()) << 40) ^
                  // msw-relaxed(fork-window): entropy mix-in; RMW
                  // atomicity decorrelates concurrent seeders.
                  counter.fetch_add(0x9e3779b9u, std::memory_order_relaxed));
    return sm.next();
}

struct ThreadRng {
    Rng rng{0};
    std::uint64_t generation = 0;  // 0 = never seeded
};

thread_local ThreadRng tls_rng;

}  // namespace

Rng&
thread_rng()
{
    // msw-relaxed(fork-window): generation check; the fork child is
    // single-threaded when it bumps, so no ordering is needed.
    const std::uint64_t gen =
        g_rng_generation.load(std::memory_order_relaxed);
    if (__builtin_expect(tls_rng.generation != gen, 0)) {
        tls_rng.rng = Rng(entropy_seed());
        tls_rng.generation = gen;
    }
    return tls_rng.rng;
}

void
rng_note_fork_child()
{
    // msw-relaxed(fork-window): the child is single-threaded here;
    // nothing can race the bump.
    g_rng_generation.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace msw
