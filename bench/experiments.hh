/**
 * @file
 * The experiment registry: every table, figure and ablation of the
 * paper reproduction, and the fleet storm, declared once as a row.  A row builds its sweep
 * points as runner::Scenarios, prints the paper-style table(s) from
 * their RunResults and, where the paper's expectation holds, states
 * that shape as a predicate over the same results.
 *
 * bench/experiments runs rows by name and writes BENCH_<row>.json;
 * experiment_shape_test checks every predicate at a reduced scale, and
 * the golden.rows ctest checks every row's output there against
 * tests/golden/rows.
 */

#ifndef KINDLE_BENCH_EXPERIMENTS_HH
#define KINDLE_BENCH_EXPERIMENTS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "runner/sweep_runner.hh"

namespace kindle::bench
{

/** The knobs every row is built at. */
struct Scale
{
    std::uint64_t divisor = 8;  ///< --scale: divides byte sizes
    std::uint64_t ops = 0;      ///< --ops; 0 = the row's default
    unsigned cores = 1;         ///< --cores

    std::uint64_t
    opsOr(std::uint64_t row_default) const
    {
        return ops ? ops : row_default;
    }
};

using Results = std::vector<runner::RunResult>;

/** A shape predicate's verdict: the clauses that did not hold. */
struct Shape
{
    std::vector<std::string> failed;

    void
    require(bool holds, std::string clause)
    {
        if (!holds)
            failed.push_back(std::move(clause));
    }
};

struct Experiment
{
    const char *name;  ///< also names BENCH_<name>.json

    /** The sweep points, in the order print and shape index them. */
    std::function<std::vector<runner::Scenario>(const Scale &)> scenarios;

    /** Print the paper-style table(s) to stdout. */
    std::function<void(const Scale &, const Results &)> print;

    /** The paper's shape; unset where the expectation does not hold
     *  (EXPERIMENTS.md says which). */
    std::function<void(const Results &, Shape &)> shape;
};

/** Every row: the paper's artifacts in order, then the ablations,
 *  then the fleet storm. */
const std::vector<Experiment> &experiments();

/** The row named @p name; fatal, naming the valid rows, if none is. */
const Experiment &findExperiment(std::string_view name);

} // namespace kindle::bench

#endif // KINDLE_BENCH_EXPERIMENTS_HH
