#include "runner/options.hh"

#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <string_view>

#include "base/logging.hh"
#include "trace/trace.hh"

namespace kindle::runner
{

namespace
{

/** Setter: a whole number of nanoseconds into @p field, in ticks. */
FlagSetter
setNanoseconds(Tick &field)
{
    return [&field](const char *text, const char *origin) {
        field = parseNumber(text, origin, 0, maxTick / oneNs) * oneNs;
    };
}

const Flag *
findFlag(const std::vector<FlagTable> &tables, std::string_view name)
{
    for (const FlagTable &table : tables) {
        for (const Flag &flag : table.flags) {
            if (name == flag.name)
                return &flag;
        }
    }
    return nullptr;
}

/** One pass of @p argv over @p tables. */
void
parseFlags(int argc, char **argv, const std::vector<FlagTable> &tables)
{
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--help") {
            printUsage(std::cout, argv[0], tables);
            std::exit(0);
        }
        const std::size_t eq = arg.find('=');
        const Flag *flag = findFlag(tables, arg.substr(0, eq));
        if (!flag)
            kindle_fatal("unknown argument '{}' (try --help)", arg);
        if (!flag->value) {
            if (eq != std::string_view::npos)
                kindle_fatal("{} takes no value", flag->name);
            flag->set("", flag->name);
        } else if (eq != std::string_view::npos) {
            flag->set(argv[i] + eq + 1, flag->name);
        } else if (i + 1 < argc) {
            flag->set(argv[++i], flag->name);
        } else {
            kindle_fatal("{} needs a value", flag->name);
        }
    }
}

} // namespace

FlagSetter
setText(std::string &field)
{
    return [&field](const char *text, const char *) { field = text; };
}

FlagSetter
setSwitch(bool &field, bool value)
{
    return [&field, value](const char *, const char *) { field = value; };
}

fault::CoreFaultPlan
parseCoreFaultSpec(const std::string &spec, const char *origin)
{
    fault::CoreFaultPlan plan;
    for (const std::string &entry : split(spec, ',')) {
        const std::size_t at = entry.find_first_of("@#");
        if (at == std::string::npos) {
            kindle_fatal("{}: expected CPU@TICKNS or CPU#NTHIPI, got "
                         "'{}' in '{}'", origin, entry, spec);
        }
        const std::size_t plus = entry.find('+', at);
        const auto number = [&](std::size_t from, std::size_t to,
                                std::uint64_t lo, std::uint64_t hi) {
            return parseNumber(entry.substr(from, to - from).c_str(),
                               origin, lo, hi);
        };
        const std::uint64_t max_ns = maxTick / oneNs;
        fault::CoreFault f;
        f.cpu = static_cast<CpuId>(number(0, at, 0, 31));
        if (entry[at] == '@')
            f.atTick = number(at + 1, plus, 1, max_ns) * oneNs;
        else
            f.atNthIpi = number(at + 1, plus, 1, ~std::uint64_t(0));
        if (plus != std::string::npos)
            f.stallTicks = number(plus + 1, entry.size(), 1, max_ns) * oneNs;
        plan.faults.push_back(f);
    }
    return plan;
}

FlagTable
runnerFlags(Options &o)
{
    return {"runner flags (every runner-backed bench)", {
        {"--jobs", "N",
         "sweep worker threads; 0 = one per hardware thread (default 0)",
         setNumber(o.jobs, 0, 4096)},
        {"--cores", "N",
         "simulated CPU cores per system, 1..32 (default 1)",
         setNumber(o.cores, 1, 32)},
        {"--trace-out", "P",
         "collect spans; write Chrome trace JSON per scenario "
         "(default off)",
         setText(o.traceOut)},
        {"--trace-flags", "L",
         "comma-separated span and ring categories, e.g. "
         "checkpoint,redo (default all)",
         [&o](const char *text, const char *origin) {
             trace::parseCategories(text, origin);  // fatal on a typo
             o.traceFlags = text;
         }},
        {"--trace-ring", "N",
         "flight-recorder depth in records; 0 disables the ring "
         "(default 512)",
         setNumber(o.traceRing, 0, 1u << 24)},
        {"--flight-out", "P",
         "flight-recorder dump destination on a power loss, recovery "
         "errors or a fuzz divergence (default off)",
         setText(o.flightOut)},
        {"--core-fail", "S",
         "seeded CPU-core faults, e.g. 1@2000000 or 2#2+3000 "
         "(default off)",
         [&o](const char *text, const char *origin) {
             o.coreFault = parseCoreFaultSpec(text, origin);
         }},
        {"--ipi-timeout", "NS",
         "shootdown ack timeout before an IPI resend (default 2000)",
         setNanoseconds(o.ipiTimeout)},
        {"--sample-interval", "NS",
         "sampling period of the --telemetry-out series; fatal "
         "without it (default 1000000)",
         setNanoseconds(o.sampleInterval)},
        {"--telemetry-out", "P",
         "write per-scenario TELEM_* time-series here; implies a 1 ms "
         "sampling period (default off)",
         setText(o.telemetryOut)},
        {"--prof", nullptr,
         "attach the host-side self-profiler: prof.* stats and a "
         "category table (default off)",
         setSwitch(o.prof)},
        {"--list-crash-sites", nullptr,
         "print the crash-site inventory and exit",
         [](const char *, const char *) {
             for (const fault::CrashSiteInfo &info :
                  fault::crashSiteCatalog()) {
                 std::printf("%-28s %s\n", info.name, info.description);
             }
             std::exit(0);
         }},
    }};
}

void
printUsage(std::ostream &os, const char *argv0,
           const std::vector<FlagTable> &tables)
{
    const auto row = [&os](const std::string &flag, const char *help) {
        os << "  " << std::left << std::setw(20) << flag << "  " << help;
    };
    os << "usage: " << argv0 << " [flag ...]\n";
    row("--help", "print this text and exit\n");
    for (const FlagTable &table : tables) {
        os << "\n" << table.title << ":\n";
        for (const Flag &flag : table.flags) {
            row(flag.value ? csprintf("{} {}", flag.name, flag.value)
                           : std::string(flag.name),
                flag.help);
            os << "\n";
        }
    }
}

Options
parseOptions(int argc, char **argv, const std::vector<FlagTable> &extra)
{
    Options opts;
    std::vector<FlagTable> tables{runnerFlags(opts)};
    tables.insert(tables.end(), extra.begin(), extra.end());
    parseFlags(argc, argv, tables);
    // The sampler's series is only ever read to export it: sampling
    // with no destination would pay a stat snapshot per sample for
    // nothing.  A destination with no explicit period samples once
    // per simulated millisecond.
    if (opts.telemetryOut.empty()) {
        if (opts.sampleInterval != 0)
            kindle_fatal("--sample-interval needs --telemetry-out");
    } else if (opts.sampleInterval == 0) {
        opts.sampleInterval = oneMs;
    }
    return opts;
}

} // namespace kindle::runner
