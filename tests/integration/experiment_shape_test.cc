/**
 * @file
 * Shape tests for the paper's headline results: every row of the
 * experiment registry (bench/experiments.hh) that states a paper-shape
 * predicate runs its real sweep at a reduced scale, and every clause of
 * the predicate must hold; a failure names the row and the clause.
 */

#include <gtest/gtest.h>

#include "experiments.hh"

namespace kindle::bench
{
namespace
{

/** --scale 32 --ops 200000: long enough that every
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
