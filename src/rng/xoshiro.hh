/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * SHARP's simulated testbed and synthetic distributions must be exactly
 * reproducible across platforms and standard-library versions, so we
 * implement our own generator (xoshiro256++, Blackman & Vigna) and our
 * own samplers rather than relying on `std::normal_distribution` et al.,
 * whose output is implementation-defined.
 */

#ifndef SHARP_RNG_XOSHIRO_HH
#define SHARP_RNG_XOSHIRO_HH

#include <array>
#include <bit>
#include <cstdint>

namespace sharp
{
namespace rng
{

/**
 * SplitMix64: used to expand a single 64-bit seed into the generator
 * state, per the xoshiro authors' recommendation.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(uint64_t seed) : state(seed) {}

    /** Next 64-bit output. */
    uint64_t next();

  private:
    uint64_t state;
};

/**
 * xoshiro256++ 1.0 — a fast, high-quality 64-bit PRNG with 256 bits of
 * state and period 2^256 - 1. Satisfies UniformRandomBitGenerator.
 */
class Xoshiro256
{
  public:
    using result_type = uint64_t;

    /** Seed via SplitMix64 expansion; any seed (including 0) is valid. */
    explicit Xoshiro256(uint64_t seed = 0x9E3779B97F4A7C15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    /** Next 64 random bits. */
    result_type operator()() { return next(); }

    /** Next 64 random bits. */
    uint64_t next()
    {
        const uint64_t result = std::rotl(state[0] + state[3], 23) + state[0];
        const uint64_t t = state[1] << 17;

        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = std::rotl(state[3], 45);

        return result;
    }

    /** Uniform double in [0, 1) with 53 bits of precision. */
    double nextDouble();

    /** Uniform double in (0, 1) — never exactly 0; safe for log(). */
    double nextDoubleOpen();

    /**
     * Uniform integer in [0, bound). @p bound must be nonzero.
     *
     * Lemire's rejection method ("Fast Random Integer Generation in an
     * Interval", 2019): a draw is kept iff the low word of
     * next() * bound is at least (2^64 - bound) mod bound. That
     * threshold is below bound, so a low word >= bound is kept without
     * the 64-bit division that computes it, and the stream is the one
     * an always-dividing loop draws.
     */
    uint64_t nextBelow(uint64_t bound)
    {
        if (bound == 0)
            zeroBound();
        __uint128_t product = static_cast<__uint128_t>(next()) * bound;
        if (static_cast<uint64_t>(product) < bound) {
            const uint64_t threshold = (0 - bound) % bound;
            while (static_cast<uint64_t>(product) < threshold)
                product = static_cast<__uint128_t>(next()) * bound;
        }
        return static_cast<uint64_t>(product >> 64);
    }

    /**
     * Jump ahead 2^128 steps; yields a stream independent from the
     * original, for parallel sub-generators.
     */
    void jump();

    /** Spawn an independent child generator (jump-based). */
    Xoshiro256 split();

  private:
    /** nextBelow(0) panics here, out of line. */
    [[noreturn]] static void zeroBound();

    std::array<uint64_t, 4> state;
};

} // namespace rng
} // namespace sharp

#endif // SHARP_RNG_XOSHIRO_HH
