/**
 * @file
 * SweepRunner: execute a vector of Scenarios on a thread pool, one
 * fully self-contained KindleSystem per scenario.
 *
 * Parallelism changes wall-clock time only: the simulator consults no
 * host time or host randomness, each scenario owns its whole stat
 * tree, and the only process-global state (trace flags, the
 * error-reporting mode) is read-only during runs — so per-sweep-point
 * tick counts and stat snapshots are bit-identical whether the sweep
 * runs with 1 job or N.  The determinism tests in tests/runner assert
 * exactly that.
 *
 * Telemetry routing: constructed from Options, the runner applies the
 * --trace-* knobs to every scenario's config and writes one Chrome
 * trace file (and one flight-dump path) *per scenario*, deriving
 * distinct file names from the scenario names — concurrent workers
 * never share a stream, so traces cannot interleave.  The
 * --sample-interval/--telemetry-out/--prof knobs route the same way:
 * one TELEM_* time-series file per scenario, and one profiler table
 * on stderr per profiled scenario.
 */

#ifndef KINDLE_RUNNER_SWEEP_RUNNER_HH
#define KINDLE_RUNNER_SWEEP_RUNNER_HH

#include <string>
#include <vector>

#include "base/stats.hh"
#include "runner/options.hh"
#include "runner/scenario.hh"

namespace kindle::runner
{

/** Outcome of one executed scenario. */
struct RunResult
{
    std::string name;
    Axes axes;

    /** Simulated ticks consumed by the run (KindleSystem::run). */
    Tick ticks = 0;

    /** Host wall-clock milliseconds (reporting only — never fed back
     *  into the simulation). */
    double wallMs = 0;

    /** Full stat snapshot of the system after the run. */
    statistics::StatSnapshot stats;

    /** Chrome trace file written for this run (empty when tracing is
     *  off or the run failed before export). */
    std::string tracePath;

    /** Telemetry time-series file written for this run (empty when
     *  the sampler is off or the run failed before export). */
    std::string telemetryPath;

    /** False when the scenario threw; error holds the message. */
    bool ok = false;
    std::string error;
};

/**
 * Apply the machine overrides of @p opts (--cores, --core-fail,
 * --ipi-timeout) to @p config; --core-fail fills kernel.coreFaults
 * only when the scenario's own plan is empty.  SweepRunner applies
 * them to every scenario, except --cores to one that owns its core
 * count (Scenario::ownsCores); a bench that also builds systems
 * outside the runner (a golden run, a self-check) calls this so both
 * see one machine.
 */
void applyMachineOverrides(const Options &opts, KindleConfig &config);

class SweepRunner
{
  public:
    /** @param jobs Worker threads; 0 = one per hardware thread. */
    explicit SweepRunner(unsigned jobs = 0);

    /** Adopt --jobs and the --trace-* routing knobs. */
    explicit SweepRunner(const Options &opts);

    unsigned jobs() const { return _jobs; }

    /**
     * Run every scenario and return results in scenario order
     * regardless of completion order.  Scenarios must not share
     * mutable state through their program factories.
     */
    std::vector<RunResult> run(const std::vector<Scenario> &scenarios);

  private:
    /**
     * Resolve the per-scenario output file under @p base: a ".json"
     * (or ".csv") base names the file directly when @p solo (sweeps
     * splice the sanitized scenario name in before the extension);
     * any other base is a directory of "<name><suffix>" files,
     * created on demand.  Empty base → empty result.
     */
    static std::string routeFile(const std::string &base,
                                 const std::string &name, bool solo,
                                 const char *suffix);

    RunResult runRouted(const Scenario &scenario,
                        const std::string &trace_path,
                        const std::string &flight_path,
                        const std::string &telemetry_path) const;

    unsigned _jobs;
    Options _opts;
};

} // namespace kindle::runner

#endif // KINDLE_RUNNER_SWEEP_RUNNER_HH
