#include <gtest/gtest.h>

#include <set>

#include "prep/workloads.hh"

namespace kindle::prep
{
namespace
{

WorkloadParams
smallParams(std::uint64_t ops = 50000)
{
    WorkloadParams p;
    p.ops = ops;
    p.scaleDown = 64;
    return p;
}

class MixParamTest
    : public ::testing::TestWithParam<std::pair<Benchmark, double>>
{};

TEST_P(MixParamTest, ReadWriteMixMatchesTable2)
{
    const auto [bench, expected_read_pct] = GetParam();
    auto src = makeWorkload(bench, smallParams(100000));
    const TraceStats stats = computeStats(*src);
    EXPECT_EQ(stats.totalOps, 100000u);
    EXPECT_NEAR(stats.readPct(), expected_read_pct, 2.5)
        << benchmarkName(bench);
}

INSTANTIATE_TEST_SUITE_P(
    Table2, MixParamTest,
    ::testing::Values(std::make_pair(Benchmark::gapbsPr, 77.0),
                      std::make_pair(Benchmark::g500Sssp, 68.0),
                      std::make_pair(Benchmark::ycsbMem, 71.0)));

TEST(WorkloadsTest, ExactOpCount)
{
    for (auto bench : {Benchmark::gapbsPr, Benchmark::g500Sssp,
                       Benchmark::ycsbMem}) {
        auto src = makeWorkload(bench, smallParams(12345));
        EXPECT_EQ(computeStats(*src).totalOps, 12345u);
    }
}

TEST(WorkloadsTest, ResetReproducesIdenticalStream)
{
    auto src = makeWorkload(Benchmark::ycsbMem, smallParams(5000));
    std::vector<TraceRecord> first;
    TraceRecord rec;
    while (src->next(rec))
        first.push_back(rec);
    src->reset();
    for (const auto &expect : first) {
        ASSERT_TRUE(src->next(rec));
        EXPECT_EQ(rec.areaId, expect.areaId);
        EXPECT_EQ(rec.offset, expect.offset);
        EXPECT_EQ(rec.op, expect.op);
    }
}

TEST(WorkloadsTest, OffsetsStayInsideAreas)
{
    for (auto bench : {Benchmark::gapbsPr, Benchmark::g500Sssp,
                       Benchmark::ycsbMem}) {
        auto src = makeWorkload(bench, smallParams(20000));
        TraceRecord rec;
        while (src->next(rec)) {
            const AreaInfo *area = src->layout().find(rec.areaId);
            ASSERT_NE(area, nullptr);
            ASSERT_LE(rec.offset + rec.size, area->sizeBytes)
                << benchmarkName(bench);
        }
    }
}

TEST(WorkloadsTest, PeriodsAreMonotonic)
{
    auto src = makeWorkload(Benchmark::gapbsPr, smallParams(10000));
    TraceRecord rec;
    std::uint64_t last = 0;
    while (src->next(rec)) {
        EXPECT_GE(rec.period, last);
        last = rec.period;
    }
}

TEST(WorkloadsTest, StackAreasReceiveSomeTraffic)
{
    auto src = makeWorkload(Benchmark::ycsbMem, smallParams(50000));
    std::set<std::uint32_t> stack_ids;
    for (const auto &a : src->layout().areas)
        if (a.kind == AreaKind::stack)
            stack_ids.insert(a.areaId);
    EXPECT_EQ(stack_ids.size(), 4u);  // SniP-captured thread stacks

    TraceRecord rec;
    std::uint64_t stack_ops = 0;
    while (src->next(rec))
        stack_ops += stack_ids.count(rec.areaId);
    EXPECT_GT(stack_ops, 0u);
    EXPECT_LT(stack_ops, 50000u / 20);  // small fraction
}

TEST(WorkloadsTest, YcsbIsSkewedGapbsRanksAreHot)
{
    // Zipfian key choice concentrates YCSB record accesses.
    auto src = makeWorkload(Benchmark::ycsbMem, smallParams(50000));
    TraceRecord rec;
    std::uint64_t low_offset_hits = 0;
    std::uint64_t kv_ops = 0;
    const AreaInfo *kv = src->layout().find(0);
    ASSERT_NE(kv, nullptr);
    while (src->next(rec)) {
        if (rec.areaId == 0) {
            ++kv_ops;
            low_offset_hits += rec.offset < kv->sizeBytes / 100;
        }
    }
    // >25% of record traffic on the hottest 1% of the store.
    EXPECT_GT(static_cast<double>(low_offset_hits) /
                  static_cast<double>(kv_ops),
              0.25);
}

TEST(WorkloadsTest, DistinctSeedsGiveDistinctStreams)
{
    WorkloadParams a = smallParams(1000);
    WorkloadParams b = smallParams(1000);
    b.seed = 777;
    auto sa = makeWorkload(Benchmark::g500Sssp, a);
    auto sb = makeWorkload(Benchmark::g500Sssp, b);
    TraceRecord ra;
    TraceRecord rb;
    int diff = 0;
    while (sa->next(ra) && sb->next(rb))
        diff += (ra.offset != rb.offset);
    EXPECT_GT(diff, 100);
}

TEST(WorkloadsTest, PaperScaleFootprints)
{
    WorkloadParams p;
    p.ops = 1;  // footprint only depends on scaleDown
    auto gap = makeWorkload(Benchmark::gapbsPr, p);
    // Paper-scale PageRank working set is in the ~100 MiB class.
    EXPECT_GT(gap->layout().totalBytes(), 90 * oneMiB);
    auto ycsb = makeWorkload(Benchmark::ycsbMem, p);
    EXPECT_GT(ycsb->layout().totalBytes(), 200 * oneMiB);
}

} // namespace
} // namespace kindle::prep
