/**
 * @file
 * Shape tests for the paper's headline results: every row of the
 * experiment registry (bench/experiments.hh) that states a paper-shape
 * predicate runs its real sweep at a reduced scale, and every clause of
 * the predicate must hold.  The Figure 4(a) and Table IV orderings are
 * also checked directly, on small hand-sized runs, so each clause fails
 * under its own name.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "experiments.hh"
#include "kindle/kindle.hh"
#include "kindle/microbench.hh"

namespace kindle::bench
{
namespace
{

/** KINDLE_SCALE=32, KINDLE_OPS=200000: long enough that every
 *  Figure 6 run crosses its first 31.25 ms migration interval. */
const Scale reduced{32, 200000, 1};

/** Rows by name, so a test's parameter prints as its row. */
std::vector<std::string>
rowsWithShape()
{
    std::vector<std::string> rows;
    for (const Experiment &row : experiments()) {
        if (row.shape)
            rows.push_back(row.name);
    }
    return rows;
}

class ExperimentShapeTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(ExperimentShapeTest, PaperShapeHolds)
{
    const Experiment &row = findExperiment(GetParam());
    const auto results =
        runner::SweepRunner(1).run(row.scenarios(reduced));
    for (const auto &r : results)
        ASSERT_TRUE(r.ok) << r.name << ": " << r.error;
    Shape shape;
    row.shape(results, shape);
    for (const std::string &clause : shape.failed)
        ADD_FAILURE() << row.name << ": " << clause;
}

INSTANTIATE_TEST_SUITE_P(
    Rows, ExperimentShapeTest, ::testing::ValuesIn(rowsWithShape()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace kindle::bench

namespace kindle
{
namespace
{

KindleConfig
persistConfig(persist::PtScheme scheme, Tick interval)
{
    KindleConfig cfg;
    cfg.memory.dramBytes = 512 * oneMiB;
    cfg.memory.nvmBytes = oneGiB;
    cfg.persistence = persist::PersistParams{scheme, interval};
    return cfg;
}

Tick
runSeqAlloc(persist::PtScheme scheme, std::uint64_t bytes,
            Tick interval)
{
    KindleSystem sys(persistConfig(scheme, interval));
    return sys.run(micro::seqAllocTouch(bytes), "seq");
}

TEST(Fig4aShape, RebuildSlowerThanPersistentForSequentialAlloc)
{
    const std::uint64_t bytes = 16 * oneMiB;
    const Tick rebuild =
        runSeqAlloc(persist::PtScheme::rebuild, bytes, oneMs);
    const Tick persistent =
        runSeqAlloc(persist::PtScheme::persistent, bytes, oneMs);
    EXPECT_GT(rebuild, persistent);
}

TEST(Fig4aShape, RebuildOverheadGrowsSuperlinearlyWithSize)
{
    const Tick small =
        runSeqAlloc(persist::PtScheme::rebuild, 4 * oneMiB, oneMs);
    const Tick large =
        runSeqAlloc(persist::PtScheme::rebuild, 16 * oneMiB, oneMs);
    // 4x the pages → more checkpoints, each more expensive: clearly
    // more than 4x total.
    EXPECT_GT(large, small * 4);
}

TEST(Table4Shape, RebuildCostDropsWithWiderInterval)
{
    const std::uint64_t bytes = 8 * oneMiB;
    const Tick narrow = runSeqAlloc(persist::PtScheme::rebuild, bytes,
                                    500 * oneUs);
    const Tick wide =
        runSeqAlloc(persist::PtScheme::rebuild, bytes, 50 * oneMs);
    EXPECT_GT(narrow, wide);
}

TEST(Table4Shape, PersistentCostInsensitiveToInterval)
{
    const std::uint64_t bytes = 8 * oneMiB;
    const Tick narrow = runSeqAlloc(persist::PtScheme::persistent,
                                    bytes, 500 * oneUs);
    const Tick wide = runSeqAlloc(persist::PtScheme::persistent,
                                  bytes, 50 * oneMs);
    // Within 25% of each other (paper: identical to the msec).
    EXPECT_LT(std::max(narrow, wide),
              std::min(narrow, wide) * 5 / 4);
}

TEST(Table4Shape, IntervalBeyondRuntimeFavoursRebuild)
{
    // Paper: with a 1 s interval (longer than the run) rebuild beats
    // persistent because the DRAM page table is simply faster.
    const std::uint64_t bytes = 8 * oneMiB;
    const Tick rebuild =
        runSeqAlloc(persist::PtScheme::rebuild, bytes, 10 * oneSec);
    const Tick persistent = runSeqAlloc(persist::PtScheme::persistent,
                                        bytes, 10 * oneSec);
    EXPECT_LT(rebuild, persistent);
}

} // namespace
} // namespace kindle
