/**
 * @file
 * Command-line options shared by every runner-driven bench binary,
 * and the flag table that parses them.
 *
 * Every flag is one row: its name, a value placeholder, one line of
 * help and a setter.  A binary registers the runner table plus its
 * own, and one parseOptions() pass applies the command line over the
 * defaults; nothing is read from the environment, so a run depends
 * only on its arguments.  `--help` prints every registered row;
 * README's knob table is generated from that output
 * (scripts/gen_crash_site_table.sh).
 *
 * Unrecognized arguments are fatal so a typo cannot silently fall
 * back to defaults in a long experiment campaign.
 */

#ifndef KINDLE_RUNNER_OPTIONS_HH
#define KINDLE_RUNNER_OPTIONS_HH

#include <cstddef>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "base/str.hh"
#include "base/types.hh"
#include "fault/fault.hh"

namespace kindle::runner
{

struct Options
{
    /** Sweep parallelism; 0 = one worker per hardware thread. */
    unsigned jobs = 0;

    /** Simulated cores per KindleSystem; 1 reproduces the single-core
     *  records bit-for-bit (see applyMachineOverrides). */
    unsigned cores = 1;

    /**
     * When non-empty, spans are collected and each scenario's trace is
     * written as Chrome trace-event JSON.  A path ending in ".json" is
     * used directly for a single scenario (sweeps insert the scenario
     * name before the extension); any other path is treated as a
     * directory of per-scenario "<name>.trace.json" files.
     */
    std::string traceOut;

    /** Category list for the sink mask; empty = all categories. */
    std::string traceFlags;

    /** Flight-recorder depth override (unset = TraceParams default). */
    std::optional<std::size_t> traceRing;

    /** Automatic flight-dump destination (same routing as traceOut). */
    std::string flightOut;

    /** Seeded CPU-core faults (unset = no plan armed). */
    std::optional<fault::CoreFaultPlan> coreFault;

    /** Shootdown ack timeout override in ticks (0 = kernel default). */
    Tick ipiTimeout = 0;

    /** Telemetry sampling period in ticks (0 = sampler off); the
     *  parsed flags set it only together with telemetryOut. */
    Tick sampleInterval = 0;

    /** Sampler series destination, routed like traceOut (a ".csv"
     *  file picks CSV); implies a 1 ms sampleInterval if none given. */
    std::string telemetryOut;

    /** Attach the self-profiler (prof.* stats + category table). */
    bool prof = false;
};

/**
 * Applies a flag's @p text (empty for a switch); @p origin names the
 * flag for error messages.
 */
using FlagSetter = std::function<void(const char *text, const char *origin)>;

/**
 * One flag.  A row with a value placeholder takes "--name V" or
 * "--name=V"; a row without one is a switch.  The help line ends in
 * "(default X)" where the default is worth naming.
 */
struct Flag
{
    const char *name;   ///< "--jobs"
    const char *value;  ///< placeholder such as "N"; nullptr: a switch
    const char *help;
    FlagSetter set;
};

/** The flags one layer registers, under a --help heading. */
struct FlagTable
{
    const char *title;
    std::vector<Flag> flags;
};

/** Setter: a whole number in [@p lo, @p hi] into @p field. */
template <typename T>
FlagSetter
setNumber(T &field, std::uint64_t lo, std::uint64_t hi)
{
    return [&field, lo, hi](const char *text, const char *origin) {
        field = static_cast<T>(parseNumber(text, origin, lo, hi));
    };
}

/** Setter: the text itself into @p field. */
FlagSetter setText(std::string &field);

/** Setter for a switch: @p value into @p field. */
FlagSetter setSwitch(bool &field, bool value = true);

/** The runner's rows, writing into @p opts. */
FlagTable runnerFlags(Options &opts);

/** Print the usage text, one line per row of @p tables. */
void printUsage(std::ostream &os, const char *argv0,
                const std::vector<FlagTable> &tables);

/**
 * Parse a --core-fail spec: comma-separated entries, each
 * "CPU@TICKNS" (fail at the first evaluation at/after TICKNS
 * nanoseconds) or "CPU#N" (fail at the core's Nth received shootdown
 * IPI), with an optional "+STALLNS" suffix turning the fail-stop into
 * a transient stall of STALLNS nanoseconds.  Fatal on malformed input.
 */
fault::CoreFaultPlan parseCoreFaultSpec(const std::string &spec,
                                        const char *origin);

/**
 * Parse @p argv against the runner flags plus the binary's own @p extra
 * tables.  `--help` prints the usage and exits 0; an unknown argument,
 * a missing value or a malformed one is fatal.
 */
Options parseOptions(int argc, char **argv,
                     const std::vector<FlagTable> &extra = {});

} // namespace kindle::runner

#endif // KINDLE_RUNNER_OPTIONS_HH
