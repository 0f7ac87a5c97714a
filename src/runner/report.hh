/**
 * @file
 * BenchReport: the structured-results side of a bench binary.
 *
 * Collects the RunResults of one sweep and writes the machine-readable
 * record the perf trajectory consumes:
 *
 *   BENCH_<name>.json
 *   {
 *     "bench": "<name>",
 *     "schema_version": 1,
 *     "jobs": 4,
 *     "points": [
 *       {
 *         "name": "gapbs_pr/1ms",
 *         "axes": {"benchmark": "gapbs_pr", "interval": "1ms"},
 *         "ok": true,
 *         "ticks": 123456789,
 *         "wall_ms": 41.7,
 *         "stats": {"ssp.intervalCommits": 12, ...}
 *       }, ...
 *     ]
 *   }
 *
 * Everything except wall_ms is deterministic: same config, same JSON,
 * independent of the --jobs level that produced it.
 */

#ifndef KINDLE_RUNNER_REPORT_HH
#define KINDLE_RUNNER_REPORT_HH

#include <ostream>
#include <string>
#include <vector>

#include "runner/sweep_runner.hh"

namespace kindle::runner
{

class BenchReport
{
  public:
    /**
     * @param bench_name Bench identifier; the default output file is
     *                   "BENCH_<bench_name>.json".
     * @param jobs       Parallelism used, recorded in the header.
     */
    BenchReport(std::string bench_name, unsigned jobs);

    /** Append one sweep point. */
    void add(const RunResult &result);

    /** Append a whole sweep in order. */
    void add(const std::vector<RunResult> &results);

    /**
     * Restrict the per-point "stats" object to snapshot entries whose
     * path starts with one of @p prefixes (e.g. {"ssp.", "persist."}).
     * Default: export every entry.
     */
    void keepStatPrefixes(std::vector<std::string> prefixes);

    /**
     * Drop the per-point "wall_ms" field — the only nondeterministic
     * entry — so the full output file is byte-identical across runs
     * (what the fuzz harness's determinism guarantee rests on).
     */
    void omitWallClock() { includeWallMs = false; }

    /** Serialize the record to @p os. */
    void writeJson(std::ostream &os) const;

    /** Write "BENCH_<name>.json" into the working directory and
     *  return the path written. */
    std::string writeJsonFile() const;

    const std::string &name() const { return benchName; }

  private:
    bool exported(const std::string &path) const;

    std::string benchName;
    unsigned jobs;
    bool includeWallMs = true;
    std::vector<std::string> statPrefixes;
    std::vector<RunResult> points;
};

} // namespace kindle::runner

#endif // KINDLE_RUNNER_REPORT_HH
