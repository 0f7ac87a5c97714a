/**
 * @file
 * The experiment driver: `experiments --experiment NAME[,NAME...]` runs
 * rows of the registry (experiments.hh) in order, each on one
 * SweepRunner under the runner flags, and writes BENCH_<row>.json to
 * the working directory; `--list` names the rows.
 */

#include <cstdio>
#include <cstdlib>

#include "base/logging.hh"
#include "bench_util.hh"
#include "experiments.hh"
#include "runner/report.hh"

int
main(int argc, char **argv)
{
    using namespace kindle;
    using namespace kindle::bench;

    std::string names;
    Scale scale;
    const auto opts = runner::parseOptions(argc, argv, {{
        "experiments flags", {
            {"--experiment", "L",
             "comma list of rows to run, in order (see --list)",
             runner::setText(names)},
            {"--list", nullptr,
             "print the row names, one per line, and exit",
             [](const char *, const char *) {
                 for (const Experiment &row : experiments())
                     std::printf("%s\n", row.name);
                 std::exit(0);
             }},
            {"--scale", "N",
             "divides byte-sized workload dimensions and the fleet "
             "storm's tenant count; 1 = paper scale (default 8)",
             runner::setNumber(scale.divisor, 1, ~std::uint64_t(0))},
            {"--ops", "N",
             "trace length of the SSP/HSCC workload studies; 10000000 "
             "is paper scale (default 200000 SSP, 1000000 HSCC)",
             runner::setNumber(scale.ops, 1, ~std::uint64_t(0))},
        }}});
    if (names.empty())
        kindle_fatal("no --experiment given (--list names the rows)");
    std::vector<const Experiment *> rows;
    for (const std::string &name : split(names, ','))
        rows.push_back(&findExperiment(name));

    scale.cores = opts.cores;
    runner::SweepRunner pool(opts);
    for (const Experiment *row : rows) {
        const auto results = pool.run(row->scenarios(scale));
        requireAllOk(results);
        row->print(scale, results);
        if (results.empty())
            continue;
        runner::BenchReport report(row->name, pool.jobs());
        report.add(results);
        printJsonFooter(report.writeJsonFile(), pool.jobs());
    }
    return 0;
}
