/**
 * @file
 * Deterministic pseudo-random number generation and the distributions used
 * by the synthetic workload generators.
 *
 * The standard <random> distributions are implementation-defined, which
 * would make workload traces differ between standard libraries. All
 * distributions here are implemented from first principles on top of a
 * xoshiro256** engine, so a (seed, parameters) pair identifies a trace
 * exactly, on any platform.
 */
#pragma once

#include <cmath>
#include <cstdint>

#include "util/check.h"

namespace msw {

/** splitmix64 — used to expand a single seed into engine state. */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state_;
};

/**
 * xoshiro256** 1.0 (Blackman & Vigna) — fast, high-quality, deterministic.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eed)
    {
        SplitMix64 sm(seed);
        for (auto& s : s_)
            s = sm.next();
    }

    /** Uniform 64-bit value. */
    std::uint64_t
    next_u64()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform in [0, bound). @p bound must be nonzero. */
    std::uint64_t
    next_below(std::uint64_t bound)
    {
        MSW_DCHECK(bound != 0);
        // Lemire's multiply-shift rejection method (unbiased).
        std::uint64_t x = next_u64();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < bound) {
            const std::uint64_t threshold = (0 - bound) % bound;
            while (lo < threshold) {
                x = next_u64();
                m = static_cast<__uint128_t>(x) * bound;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform in [lo, hi] inclusive. */
    std::uint64_t
    next_range(std::uint64_t lo, std::uint64_t hi)
    {
        MSW_DCHECK(lo <= hi);
        return lo + next_below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    next_double()
    {
        return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p. */
    bool
    next_bool(double p)
    {
        return next_double() < p;
    }

    /** Standard normal via Box-Muller (no cached spare: keeps state simple). */
    double
    next_normal()
    {
        double u1 = next_double();
        double u2 = next_double();
        while (u1 <= 1e-300) {
            u1 = next_double();
        }
        return std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * 3.14159265358979323846 * u2);
    }

    /** Exponential with mean @p mean. */
    double
    next_exponential(double mean)
    {
        double u = next_double();
        while (u <= 1e-300) {
            u = next_double();
        }
        return -mean * std::log(u);
    }

    /** Log-normal: exp(N(mu, sigma)). */
    double
    next_lognormal(double mu, double sigma)
    {
        return std::exp(mu + sigma * next_normal());
    }

    /**
     * Bounded Pareto-ish heavy tail: returns values >= 1 with tail index
     * @p alpha, truncated at @p max_value.
     */
    double
    next_pareto(double alpha, double max_value)
    {
        double u = next_double();
        while (u <= 1e-300) {
            u = next_double();
        }
        const double v = std::pow(u, -1.0 / alpha);
        return v > max_value ? max_value : v;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

/**
 * The calling thread's engine for *non-deterministic* randomness — the
 * hardened allocation policy's slot placement, reuse order and release
 * shuffling. Unlike the workload engines above it is seeded from local
 * entropy (clock, pid, a per-seed counter), never from a fixed seed.
 *
 * Fork-safe: fork duplicates thread-local engine state, and a child
 * continuing the parent's stream would make its heap layout predictable
 * from the parent's. core/lifecycle bumps a process-wide generation in
 * its atfork child handler (rng_note_fork_child); the next thread_rng()
 * call in the child observes the mismatch and reseeds.
 */
Rng& thread_rng();

/**
 * Invalidate every thread's cached engine (the atfork child handler).
 * Async-signal-safe: one relaxed atomic increment.
 */
void rng_note_fork_child();

}  // namespace msw
