/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component in Kindle (workload generators, zipfian
 * key pickers) draws from an explicitly seeded Xorshift64* stream, so
 * a given configuration always produces the same simulation, tick for
 * tick.  Host randomness and wall-clock time are never consulted.
 */

#ifndef KINDLE_BASE_RANDOM_HH
#define KINDLE_BASE_RANDOM_HH

#include <cstdint>
#include <vector>

#include "base/logging.hh"

namespace kindle
{

/** Seedable xorshift64* PRNG; small, fast, deterministic. */
class Random
{
  public:
    explicit Random(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
        : state(seed ? seed : 1)
    {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state = x;
        return x * 0x2545f4914f6cdd1dull;
    }

    /** Uniform integer in [0, bound). bound must be non-zero. */
    std::uint64_t
    uniform(std::uint64_t bound)
    {
        kindle_assert(bound != 0, "uniform() with zero bound");
        return next() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        kindle_assert(hi >= lo, "range() with hi < lo");
        return lo + uniform(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniformReal()
    {
        return (next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli draw with probability @p p of true. */
    bool chance(double p) { return uniformReal() < p; }

  private:
    std::uint64_t state;
};

/**
 * Zipfian distribution over [0, n) with skew theta, using the
 * Gray et al. rejection-free inverse-CDF approximation popularized by
 * the YCSB workload generator.
 */
class ZipfianGenerator
{
  public:
    /**
     * @param n      Number of items.
     * @param theta  Skew; YCSB default 0.99.
     * @param seed   PRNG seed for draws.
     */
    ZipfianGenerator(std::uint64_t n, double theta, std::uint64_t seed);

    /** Draw the next item index in [0, n). */
    std::uint64_t next();

    /**
     * Restart the draw sequence as if freshly built with @p seed.
     * The normaliser (zetan, eta, alpha) depends only on (n, theta),
     * so it is kept rather than summed again.
     */
    void reseed(std::uint64_t seed) { rng = Random(seed); }

    std::uint64_t items() const { return n; }
    double skew() const { return theta; }

  private:
    double zeta(std::uint64_t count, double theta_arg) const;

    std::uint64_t n;
    double theta;
    double alpha;
    double zetan;
    double eta;
    Random rng;
};

} // namespace kindle

#endif // KINDLE_BASE_RANDOM_HH
