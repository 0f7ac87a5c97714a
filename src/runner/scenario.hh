/**
 * @file
 * A Scenario is one point of an experiment sweep: a complete
 * KindleConfig, a factory producing the workload program, and the
 * named sweep-axis values that identify the point ("scheme=rebuild",
 * "interval=10ms", ...).
 *
 * Scenarios are plain values — copying one is cheap and running one
 * touches no shared state, which is what lets SweepRunner execute
 * many of them concurrently while staying bit-identical to a
 * sequential run.
 */

#ifndef KINDLE_RUNNER_SCENARIO_HH
#define KINDLE_RUNNER_SCENARIO_HH

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kindle/kindle.hh"

namespace kindle::runner
{

/** Ordered axis→value labels describing one sweep point. */
using Axes = std::vector<std::pair<std::string, std::string>>;

/** One experiment configuration to run. */
struct Scenario
{
    /** Unique human-readable point name, e.g. "gapbs_pr/1ms". */
    std::string name;

    /** Sweep coordinates, serialized into the JSON record. */
    Axes axes;

    /** Full system configuration for this point. */
    KindleConfig config;

    /**
     * The point sets config.numCores itself (a core-count sweep axis),
     * so the runner's --cores override leaves it alone.
     */
    bool ownsCores = false;

    /**
     * Builds the workload each time the scenario runs.  A factory
     * (not a stream) because OpStreams are consumed by a run and a
     * scenario may be executed more than once (e.g. --jobs 1 vs
     * --jobs 4 determinism checks).
     */
    std::function<std::unique_ptr<cpu::OpStream>()> program;

    /**
     * Custom driver replacing the default spawn-and-run.  When set,
     * the runner calls it instead of KindleSystem::run() — this is how
     * multi-phase harnesses (crash + reboot + verify) run under the
     * sweep machinery.  Returns the simulated ticks consumed; entries
     * added to @p extra are merged into the exported stat snapshot
     * after capture (and may overwrite captured paths).
     */
    std::function<Tick(KindleSystem &sys,
                       statistics::StatSnapshot &extra)>
        drive;
};

} // namespace kindle::runner

#endif // KINDLE_RUNNER_SCENARIO_HH
