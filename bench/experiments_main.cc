/**
 * @file
 * The experiment driver: `experiments --experiment NAME[,NAME...]` runs
 * rows of the registry (experiments.hh) in order, each on one
 * SweepRunner under the runner flags, and writes BENCH_<row>.json to
 * `.` or $KINDLE_RESULTS_DIR; `--list` names the rows.
 */

#include <cstdio>
#include <cstdlib>

#include "base/logging.hh"
#include "bench_util.hh"
#include "experiments.hh"
#include "prep/workloads.hh"
#include "runner/report.hh"

int
main(int argc, char **argv)
{
    using namespace kindle;
    using namespace kindle::bench;

    std::string names;
    const auto opts = runner::parseOptions(argc, argv, {{
        "experiments flags", {
            {"--experiment", nullptr, "L",
             "comma list of rows to run, in order (see --list)",
             runner::setText(names)},
            {"--list", nullptr, nullptr,
             "print the row names, one per line, and exit",
             [](const char *, const char *) {
                 for (const Experiment &row : experiments())
                     std::printf("%s\n", row.name);
                 std::exit(0);
             }},
        }}});
    if (names.empty())
        kindle_fatal("no --experiment given (--list names the rows)");
    std::vector<const Experiment *> rows;
    for (const std::string &name : split(names, ','))
        rows.push_back(&findExperiment(name));

    const Scale scale{scaleFromEnv(), prep::opsFromEnv(0), opts.cores};
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
