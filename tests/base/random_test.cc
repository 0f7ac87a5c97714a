#include <gtest/gtest.h>

#include <map>

#include "base/random.hh"

namespace kindle
{
namespace
{

TEST(RandomTest, DeterministicForSameSeed)
{
    Random a(123);
    Random b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RandomTest, DifferentSeedsDiverge)
{
    Random a(1);
    Random b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(RandomTest, UniformStaysInBounds)
{
    Random r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.uniform(17), 17u);
}

TEST(RandomTest, RangeInclusive)
{
    Random r(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 6);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RandomTest, UniformRealInUnitInterval)
{
    Random r(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double v = r.uniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RandomTest, ChanceApproximatesProbability)
{
    Random r(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.chance(0.25);
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(ZipfianTest, StaysInRangeAndIsDeterministic)
{
    ZipfianGenerator a(1000, 0.99, 5);
    ZipfianGenerator b(1000, 0.99, 5);
    for (int i = 0; i < 5000; ++i) {
        const auto v = a.next();
        EXPECT_LT(v, 1000u);
        EXPECT_EQ(v, b.next());
    }
}

TEST(ZipfianTest, SkewConcentratesMassOnLowRanks)
{
    ZipfianGenerator z(100000, 0.99, 17);
    std::uint64_t in_top_100 = 0;
    constexpr int draws = 50000;
    for (int i = 0; i < draws; ++i)
        in_top_100 += (z.next() < 100);
    // YCSB-style zipfian(0.99) puts roughly half the mass on the top
    // 0.1% of keys.
    EXPECT_GT(in_top_100, draws / 4);
}

TEST(ZipfianTest, HigherThetaIsMoreSkewed)
{
    ZipfianGenerator lo(10000, 0.5, 23);
    ZipfianGenerator hi(10000, 0.95, 23);
    std::uint64_t lo_hits = 0;
    std::uint64_t hi_hits = 0;
    for (int i = 0; i < 20000; ++i) {
        lo_hits += (lo.next() < 10);
        hi_hits += (hi.next() < 10);
    }
    EXPECT_GT(hi_hits, lo_hits);
}

class ZipfianParamTest
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ZipfianParamTest, AllItemsReachableBoundsHold)
{
    const std::uint64_t n = GetParam();
    ZipfianGenerator z(n, 0.9, 31);
    for (int i = 0; i < 2000; ++i)
        ASSERT_LT(z.next(), n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ZipfianParamTest,
                         ::testing::Values(1, 2, 10, 1000, 1u << 21));

/** Sizes on both sides of zeta()'s 2^20 exact-sum limit: the second
 *  adds the integral tail. */
class ZipfianReseedTest
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ZipfianReseedTest, ReseedMatchesFreshGenerator)
{
    const std::uint64_t n = GetParam();
    ZipfianGenerator z(n, 0.99, 11);
    for (int i = 0; i < 1000; ++i)
        z.next();
    for (const std::uint64_t seed : {11u, 12u}) {
        z.reseed(seed);
        ZipfianGenerator fresh(n, 0.99, seed);
        for (int i = 0; i < 5000; ++i)
            ASSERT_EQ(z.next(), fresh.next())
                << "seed " << seed << ", draw " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ZipfianReseedTest,
                         ::testing::Values(1u << 20, (1u << 20) + 4096));

} // namespace
} // namespace kindle
