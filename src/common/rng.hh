/**
 * @file
 * Deterministic pseudo-random number generation for workload traces.
 *
 * All workload generators draw from this RNG so that every benchmark
 * run is exactly reproducible. The implementation is splitmix64 for
 * seeding plus xoshiro256** for the stream — fast, high quality, and
 * fully self-contained (no dependence on libstdc++ distributions whose
 * outputs differ across standard library versions).
 */

#ifndef DMT_COMMON_RNG_HH
#define DMT_COMMON_RNG_HH

#include <cmath>
#include <cstdint>

namespace dmt
{

/** Deterministic 64-bit random number generator (xoshiro256**). */
class Rng
{
  public:
    /** Construct from a seed; identical seeds give identical streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        // splitmix64 to fill the state from a single seed.
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** @return the next raw 64-bit value. */
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

    /** @return a uniform value in [0, bound). bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's nearly-divisionless bounded generation.
        __uint128_t m = static_cast<__uint128_t>(next()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** @return a uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

/**
 * Approximately Zipf-distributed ranks in [0, n) with exponent s, by
 * inverse CDF over the continuous Zipf integral. Used for skewed key
 * popularity (Redis/Memcached). The normalizer depends only on (n, s)
 * and is computed once here; each draw evaluates the same expressions
 * as a per-draw computation would, so its ranks are bit-identical.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double s)
        : n_(n), harmonic_(s == 1.0), oneMinusS_(1.0 - s),
          invOneMinusS_(harmonic_ ? 0.0 : 1.0 / oneMinusS_),
          hn_(harmonic_
                  ? std::log(static_cast<double>(n) + 1.0)
                  : (std::pow(static_cast<double>(n) + 1.0,
                              oneMinusS_) -
                     1.0) /
                        oneMinusS_)
    {
    }

    /** @return the next rank, drawing one uniform() from rng. */
    std::uint64_t
    operator()(Rng &rng) const
    {
        const double u = rng.uniform();
        const double r =
            harmonic_ ? std::exp(u * hn_) - 1.0
                      : std::pow(u * hn_ * oneMinusS_ + 1.0,
                                 invOneMinusS_) -
                            1.0;
        const auto rank = static_cast<std::uint64_t>(r);
        return rank < n_ ? rank : n_ - 1;
    }

  private:
    std::uint64_t n_;
    bool harmonic_;  //!< s == 1: the integral is a logarithm
    double oneMinusS_;
    double invOneMinusS_;
    double hn_;  //!< the integral's normalizer over [0, n]
};

} // namespace dmt

#endif // DMT_COMMON_RNG_HH
