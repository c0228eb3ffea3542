/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (weight init, retention-time
 * sampling, bit-flip injection, workload synthesis) flows through Rng so
 * that every experiment is reproducible from a single seed. The generator
 * is xoshiro256** seeded via SplitMix64, which is fast, high quality and
 * has a tiny state that can be forked cheaply per subsystem.
 */

#ifndef KELLE_COMMON_RNG_HPP
#define KELLE_COMMON_RNG_HPP

#include <cmath>
#include <cstdint>

namespace kelle {

/** xoshiro256** PRNG with SplitMix64 seeding. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull)
    {
        // SplitMix64 expansion of the seed into the 256-bit state.
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9E3779B97F4A7C15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t
    below(std::uint64_t n)
    {
        // Lemire-style rejection-free bound would be overkill; modulo
        // bias is negligible for the n << 2^64 used here.
        return next() % n;
    }

    /** Standard normal via Box-Muller (no cached second value). */
    double
    gaussian()
    {
        double u1 = uniform();
        double u2 = uniform();
        while (u1 <= 1e-300) {
            u1 = uniform();
        }
        return std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * 3.14159265358979323846 * u2);
    }

    double
    gaussian(double mean, double stddev)
    {
        return mean + stddev * gaussian();
    }

    /** Bernoulli draw. */
    bool
    bernoulli(double p)
    {
        return uniform() < p;
    }

    /** Fork a decorrelated child generator (for per-subsystem streams). */
    Rng
    fork()
    {
        return Rng(next() ^ 0xD1B54A32D192ED03ull);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4] = {};
};

/**
 * SplitMix64-style hash of (a, b) to a uniform double in [0, 1) — the
 * backoff jitter of fault re-dispatch. A pure hash instead of a shared
 * Rng stream, so enabling retries cannot perturb any other draw.
 */
inline double
hashUnit(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t x = a * 0x9E3779B97F4A7C15ull + b;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    x ^= x >> 31;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
}

} // namespace kelle

#endif // KELLE_COMMON_RNG_HPP
