#include "runner/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>
#include <thread>

#include "base/logging.hh"

namespace kindle::runner
{

SweepRunner::SweepRunner(unsigned jobs) : _jobs(jobs)
{
    if (_jobs == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        _jobs = hw ? hw : 1;
    }
}

SweepRunner::SweepRunner(const Options &opts)
    : SweepRunner(opts.jobs)
{
    _opts = opts;
}

namespace
{

/** Scenario names use '/' as an axis separator; file names cannot. */
std::string
sanitizeName(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        if (c == '/' || c == '\\' || c == ':' || c == ' ')
            c = '_';
    }
    return out;
}

} // namespace

void
applyMachineOverrides(const Options &opts, KindleConfig &config)
{
    if (opts.cores > 1)
        config.numCores = opts.cores;
    if (opts.coreFault && !config.kernel.coreFaults.enabled())
        config.kernel.coreFaults = *opts.coreFault;
    if (opts.ipiTimeout != 0)
        config.kernel.ipiAckTimeout = opts.ipiTimeout;
}

std::string
SweepRunner::routeFile(const std::string &base, const std::string &name,
                       bool solo, const char *suffix)
{
    if (base.empty())
        return {};
    for (const std::string_view ext : {std::string_view(".json"),
                                       std::string_view(".csv")}) {
        if (base.size() <= ext.size() ||
            base.compare(base.size() - ext.size(), ext.size(), ext) !=
                0) {
            continue;
        }
        if (solo)
            return base;
        // Sweep over a file path: splice the point name in before the
        // extension so concurrent workers get distinct files.
        return base.substr(0, base.size() - ext.size()) + "." +
               sanitizeName(name) + std::string(ext);
    }
    std::error_code ec;
    std::filesystem::create_directories(base, ec);
    if (ec) {
        kindle_fatal("cannot create trace directory '{}': {}", base,
                     ec.message());
    }
    return base + "/" + sanitizeName(name) + suffix;
}

RunResult
SweepRunner::runRouted(const Scenario &scenario,
                       const std::string &trace_path,
                       const std::string &flight_path,
                       const std::string &telemetry_path) const
{
    RunResult result;
    result.name = scenario.name;
    result.axes = scenario.axes;

    // The routing knobs override the scenario's own trace config.
    KindleConfig config = scenario.config;
    applyMachineOverrides(_opts, config);
    if (scenario.ownsCores)
        config.numCores = scenario.config.numCores;
    if (!trace_path.empty())
        config.trace.spans = true;
    if (!_opts.traceFlags.empty())
        config.trace.categories = _opts.traceFlags;
    if (_opts.traceRing)
        config.trace.ringDepth = *_opts.traceRing;
    if (!flight_path.empty())
        config.trace.flightDumpPath = flight_path;
    if (_opts.sampleInterval != 0)
        config.telemetry.sampleInterval = _opts.sampleInterval;
    if (_opts.prof)
        config.profiling = true;

    const auto wall_start = std::chrono::steady_clock::now();
    try {
        KindleSystem sys(config);
        statistics::StatSnapshot extra;
        if (scenario.drive)
            result.ticks = scenario.drive(sys, extra);
        else
            result.ticks = sys.run(scenario.program(), scenario.name);
        result.stats = sys.snapshotStats();
        for (const auto &[path, value] : extra.entries())
            result.stats.set(path, value);
        if (!trace_path.empty()) {
            std::ofstream out(trace_path);
            if (!out) {
                kindle_fatal("cannot write trace to '{}'",
                             trace_path);
            }
            sys.writeTrace(out);
            result.tracePath = trace_path;
        }
        if (!telemetry_path.empty() && sys.sampler()) {
            std::ofstream out(telemetry_path);
            if (!out) {
                kindle_fatal("cannot write telemetry to '{}'",
                             telemetry_path);
            }
            const bool csv =
                telemetry_path.size() > 4 &&
                telemetry_path.compare(telemetry_path.size() - 4, 4,
                                       ".csv") == 0;
            sys.writeTelemetry(out, csv);
            result.telemetryPath = telemetry_path;
        }
        if (config.profiling && sys.profiler()) {
            std::ostringstream table;
            table << "prof[" << scenario.name << "]\n";
            sys.profiler()->printTable(table);
            // One write per scenario keeps concurrent workers'
            // tables from interleaving line-by-line.
            std::cerr << table.str();
        }
        result.ok = true;
    } catch (const SimError &e) {
        result.error = e.message();
    } catch (const std::exception &e) {
        result.error = e.what();
    }
    const auto wall_end = std::chrono::steady_clock::now();
    result.wallMs =
        std::chrono::duration<double, std::milli>(wall_end -
                                                  wall_start)
            .count();
    return result;
}

std::vector<RunResult>
SweepRunner::run(const std::vector<Scenario> &scenarios)
{
    std::vector<RunResult> results(scenarios.size());
    const bool solo = scenarios.size() == 1;

    // Work stealing over an atomic cursor: results land at their
    // scenario's index, so output order never depends on scheduling.
    std::atomic<std::size_t> cursor{0};
    auto worker = [&] {
        for (;;) {
            const std::size_t i =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= scenarios.size())
                return;
            results[i] = runRouted(
                scenarios[i],
                routeFile(_opts.traceOut, scenarios[i].name, solo,
                          ".trace.json"),
                routeFile(_opts.flightOut, scenarios[i].name, solo,
                          ".flight.json"),
                routeFile(_opts.telemetryOut,
                          "TELEM_" + scenarios[i].name, solo,
                          ".json"));
        }
    };

    const std::size_t want =
        std::min<std::size_t>(_jobs, scenarios.size());
    if (want <= 1) {
        worker();
        return results;
    }
    std::vector<std::thread> pool;
    pool.reserve(want);
    for (std::size_t t = 0; t < want; ++t)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    return results;
}

} // namespace kindle::runner
