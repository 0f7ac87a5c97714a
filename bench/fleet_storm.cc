/**
 * @file
 * Multi-tenant fleet storm: 1k+ tenant processes, checkpoint storms,
 * reclaim and the OOM killer, on one core and on four.
 *
 * Each sweep point boots a fleet-sized machine (saved-state slots for
 * every tenant, right-sized mapping lists, zombie reaping) and drives
 * the src/fleet workload: a population of YCSB-style key-value
 * tenants with Zipfian page popularity, skewed heap sizes and
 * open-loop Poisson/bursty think times, churning through the
 * crash-consistent exit/spawn paths while periodic checkpoints sweep
 * the whole population and the pressure machinery (reclaim demotions,
 * degraded MAP_NVM faults, OOM kills) works against the fleet's
 * aggregate demand.
 *
 * Flags (besides the common runner set — see --help):
 *   --tenants N     fleet size, default 1024 (KINDLE_FLEET_TENANTS)
 *   --churn N       replacement spawns       (KINDLE_FLEET_CHURN)
 *   --zipf THETA    key-popularity skew      (KINDLE_FLEET_ZIPF)
 *   --arrival A     poisson | bursty         (KINDLE_FLEET_ARRIVAL)
 *   --fleet-seed N  master seed              (KINDLE_FLEET_SEED)
 *   --requests N    requests per tenant      (KINDLE_FLEET_REQUESTS)
 *   --no-pressure   drop the pressure plan (pure checkpoint storm)
 *
 * Deterministic: the same seed produces byte-identical
 * BENCH_fleet_storm.json apart from the wall_ms fields (which the CI
 * perf gate consumes).  A built-in self-check re-runs a small fleet
 * twice and requires byte-identical stat snapshots before any sweep.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "runner/fleet_scenario.hh"
#include "runner/options.hh"
#include "runner/report.hh"
#include "runner/sweep_runner.hh"

namespace
{

using namespace kindle;
using namespace kindle::bench;

/**
 * The determinism contract: a churning fleet (spawns interleaved with
 * OOM kills and exits across scheduler epochs) must still be a pure
 * function of its seed.  Run a small fleet twice on two cores and
 * require identical stat snapshots and fleet counters.
 */
void
selfCheckDeterminism(const runner::FleetOptions &base)
{
    runner::FleetOptions small = base;
    small.params.tenants = 48;
    small.params.churnSpawns = 16;
    small.params.requestsPerTenant = 8;
    const auto once = [&] {
        runner::Scenario sc = runner::makeFleetScenario(
            "selfcheck", {}, small, 2);
        KindleSystem sys(sc.config);
        statistics::StatSnapshot extra;
        sc.drive(sys, extra);
        auto snap = sys.snapshotStats();
        for (const auto &[path, value] : extra.entries())
            snap.set(path, value);
        return snap;
    };
    const auto s1 = once();
    const auto s2 = once();
    kindle_assert(s1 == s2,
                  "fleet runs diverged — churn determinism broken");
    std::printf("self-check: churning fleet deterministic "
                "(%zu stats, byte-identical across runs)\n",
                s1.entries().size());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<char *> pass_argv;
    runner::FleetOptions fo =
        runner::parseFleetOptions(argc, argv, pass_argv);
    const auto opts = runner::parseOptions(
        static_cast<int>(pass_argv.size()), pass_argv.data());

    printHeader(
        "Fleet storm",
        std::to_string(fo.params.tenants) + " tenants, churn " +
            std::to_string(fo.params.churnSpawns) + ", zipf " +
            std::to_string(fo.params.zipfTheta) + ", " +
            fleet::arrivalName(fo.params.arrival) + " arrivals" +
            (fo.pressure ? ", pressure + OOM armed" : ""));

    selfCheckDeterminism(fo);

    // The scalability axis of the paper's multiprogrammed story: the
    // same fleet time-shared on one core and spread over four.
    std::vector<unsigned> core_counts = {1, 4};
    if (opts.cores != 1 && opts.cores != 4)
        core_counts.push_back(opts.cores);

    std::vector<runner::Scenario> scenarios;
    for (unsigned cores : core_counts) {
        runner::Axes axes = {
            {"cores", std::to_string(cores)},
            {"tenants", std::to_string(fo.params.tenants)},
            {"churn", std::to_string(fo.params.churnSpawns)},
            {"arrival", fleet::arrivalName(fo.params.arrival)},
        };
        scenarios.push_back(runner::makeFleetScenario(
            "c" + std::to_string(cores), std::move(axes), fo, cores));
    }

    runner::SweepRunner pool(opts);
    const auto results = pool.run(scenarios);
    requireAllOk(results);

    runner::BenchReport report("fleet_storm", pool.jobs());
    if (std::getenv("KINDLE_FLEET_ALLSTATS")) {
        report.keepStatPrefixes({""});  // debugging: keep everything
    } else {
        report.keepStatPrefixes(
            {"fleet.", "kernel.oomKills", "kernel.oomPagesFreed",
             "kernel.enomemFaults", "kernel.reclaim.",
             "kernel.nvmDegradedAllocs", "kernel.contextSwitches",
             "kernel.dramAlloc.", "kernel.nvmAlloc.",
             "persist.checkpoints", "persist.earlyCheckpoints",
             "persist.cleanSkips", "persist.slotsCompacted", "prof."});
    }
    report.add(results);

    TablePrinter table({"Cores", "Spawned", "Churn", "PeakLive",
                        "Requests", "Ckpts", "OomKills", "Demotions"});
    for (const auto &r : results) {
        // getOr: reclaim/OOM stats register lazily and persistence
        // may be off, so absent paths read as zero here.
        const auto stat = [&](const char *path) {
            return static_cast<std::uint64_t>(r.stats.getOr(path, 0));
        };
        table.addRow({r.name,
                      std::to_string(stat("fleet.spawned")),
                      std::to_string(stat("fleet.churnSpawns")),
                      std::to_string(stat("fleet.peakLive")),
                      std::to_string(stat("fleet.requests")),
                      std::to_string(stat("persist.checkpoints")),
                      std::to_string(stat("kernel.oomKills")),
                      std::to_string(
                          stat("kernel.reclaim.pagesDemoted"))});
    }
    table.print();

    printJsonFooter(report.writeJsonFile(), pool.jobs());
    return 0;
}
