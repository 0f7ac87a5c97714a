/**
 * @file
 * Shared seeded-randomness helpers layered over base/random.hh.
 *
 * Random (xorshift64*) and ZipfianGenerator give every stochastic
 * component a deterministic stream, but the code that *derives* seeds
 * for substreams had grown ad hoc: per-point fuzz plans seeded with
 * `base + index` (adjacent xorshift states are correlated), and
 * workload generators xor'ed magic constants.  This header is the one
 * home for that plumbing:
 *
 *  - splitmix64(): the Steele et al. finalizer, the standard way to
 *    turn a counter into a decorrelated 64-bit seed;
 *  - deriveSeed(): substream derivation — deriveSeed(base, k) gives
 *    stream k of base, decorrelated from streams k-1 and k+1;
 *  - expInterval(): exponential inter-arrival draws for open-loop
 *    Poisson request generators;
 *  - WeightedPicker: seeded draw from a small discrete distribution
 *    (tenant size classes, request type mixes).
 *
 * The fleet workload generator (src/fleet) and the fuzz driver
 * (bench/fuzz.cc: per-point plan seeds, per-core-spec seed lanes)
 * both build on these.
 */

#ifndef KINDLE_BASE_RAND_HH
#define KINDLE_BASE_RAND_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "base/logging.hh"
#include "base/random.hh"

namespace kindle::rand
{

/**
 * The splitmix64 finalizer (Steele, Lea & Flood): a bijective mixer
 * whose output is decorrelated even for sequential inputs.  Use it to
 * turn counters, ids and composite keys into PRNG seeds.
 */
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Seed for substream @p stream of master seed @p base.  Adjacent
 * streams are decorrelated (unlike `base + stream`, which hands
 * xorshift64* nearly identical start states).
 */
constexpr std::uint64_t
deriveSeed(std::uint64_t base, std::uint64_t stream)
{
    return splitmix64(base ^ splitmix64(stream));
}

/**
 * One exponential inter-arrival interval with mean @p mean (an
 * open-loop Poisson process draws these back to back).  Always
 * positive; the 1-u transform keeps log() away from zero.
 */
inline double
expInterval(Random &rng, double mean)
{
    kindle_assert(mean > 0.0, "expInterval with non-positive mean");
    return -mean * std::log(1.0 - rng.uniformReal());
}

/**
 * Seedless draw from a small discrete distribution: pick(rng) returns
 * the index of one weight, with probability proportional to it.
 * Weights are cumulated once at construction; draws are a binary
 * search, so per-tenant class picks stay O(log n) however many
 * classes a fleet defines.
 */
class WeightedPicker
{
  public:
    explicit WeightedPicker(std::vector<double> weights)
    {
        double sum = 0.0;
        for (double w : weights) {
            kindle_assert(w >= 0.0, "negative weight");
            sum += w;
            cum.push_back(sum);
        }
        kindle_assert(sum > 0.0, "weights sum to zero");
    }

    std::size_t
    pick(Random &rng) const
    {
        const double x = rng.uniformReal() * cum.back();
        std::size_t lo = 0, hi = cum.size() - 1;
        while (lo < hi) {
            const std::size_t mid = (lo + hi) / 2;
            if (cum[mid] > x)
                hi = mid;
            else
                lo = mid + 1;
        }
        return lo;
    }

    std::size_t size() const { return cum.size(); }

  private:
    std::vector<double> cum;
};

} // namespace kindle::rand

#endif // KINDLE_BASE_RAND_HH
