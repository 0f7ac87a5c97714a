#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "runner/options.hh"
#include "runner/report.hh"

namespace kindle::runner
{
namespace
{

/** A binary's own rows, registered next to the runner's. */
struct ToolOptions
{
    unsigned count = 0;
    std::uint64_t seed = 42;
    bool quiet = false;
};

FlagTable
toolFlags(ToolOptions &t)
{
    return {"tool flags", {
        {"--count", "N", "items, 1..65536", setNumber(t.count, 1, 65536)},
        {"--tool-seed", "N", "master seed",
         setNumber(t.seed, 0, ~std::uint64_t(0))},
        {"--quiet", nullptr, "print nothing", setSwitch(t.quiet)},
    }};
}

class OptionsTest : public ::testing::Test
{
  protected:
    void SetUp() override { setErrorsThrow(true); }
    void TearDown() override { setErrorsThrow(false); }

    /** parseOptions over @p args, with "bench" as argv[0]. */
    static Options
    parse(std::vector<std::string> args,
          const std::vector<FlagTable> &extra = {})
    {
        std::vector<char *> argv{const_cast<char *>("bench")};
        for (std::string &arg : args)
            argv.push_back(arg.data());
        return parseOptions(static_cast<int>(argv.size()), argv.data(),
                            extra);
    }
};

TEST_F(OptionsTest, RunnerFlagBeatsDefault)
{
    EXPECT_EQ(parse({}).jobs, 0u);
    EXPECT_EQ(parse({"--jobs", "5"}).jobs, 5u);
    EXPECT_FALSE(parse({}).prof);
    EXPECT_TRUE(parse({"--prof"}).prof);
}

TEST_F(OptionsTest, ExtraFlagBeatsDefault)
{
    ToolOptions to;
    parse({}, {toolFlags(to)});
    EXPECT_EQ(to.count, 0u);
    parse({"--count", "9"}, {toolFlags(to)});
    EXPECT_EQ(to.count, 9u);
}

/**
 * A run depends only on its arguments: no KINDLE_* variable, named
 * like a runner flag or like a workload knob, changes the parsed
 * options or where a report lands.
 */
TEST_F(OptionsTest, EnvironmentIsInert)
{
    const std::vector<std::pair<const char *, const char *>> vars{
        {"KINDLE_JOBS", "3"},
        {"KINDLE_CORES", "4"},
        {"KINDLE_TRACE_OUT", "t.json"},
        {"KINDLE_TRACE_FLAGS", "redo"},
        {"KINDLE_TRACE_RING", "7"},
        {"KINDLE_FLIGHT_OUT", "f.json"},
        {"KINDLE_CORE_FAIL", "1@2000000"},
        {"KINDLE_IPI_TIMEOUT", "500"},
        {"KINDLE_TELEMETRY", "1000"},
        {"KINDLE_TELEMETRY_OUT", "telem.json"},
        {"KINDLE_PROF", "1"},
        {"KINDLE_SCALE", "2"},
        {"KINDLE_OPS", "4567"},
        {"KINDLE_RESULTS_DIR", "/nonexistent"},
    };
    for (const auto &[name, value] : vars)
        ::setenv(name, value, 1);

    const Options opts = parse({});
    EXPECT_EQ(opts.jobs, 0u);
    EXPECT_EQ(opts.cores, 1u);
    EXPECT_EQ(opts.traceOut, "");
    EXPECT_EQ(opts.traceFlags, "");
    EXPECT_FALSE(opts.traceRing.has_value());
    EXPECT_EQ(opts.flightOut, "");
    EXPECT_FALSE(opts.coreFault.has_value());
    EXPECT_EQ(opts.ipiTimeout, 0u);
    EXPECT_EQ(opts.sampleInterval, 0u);
    EXPECT_EQ(opts.telemetryOut, "");
    EXPECT_FALSE(opts.prof);

    // The report lands in the working directory.
    char dir[] = "/tmp/kindle_inert_XXXXXX";
    ASSERT_NE(::mkdtemp(dir), nullptr);
    char *const cwd = ::getcwd(nullptr, 0);
    ASSERT_EQ(::chdir(dir), 0);
    std::string path;
    EXPECT_NO_THROW(path = BenchReport("inert", 1).writeJsonFile());
    const std::string file = std::string(dir) + "/BENCH_inert.json";
    EXPECT_TRUE(std::ifstream(file).good()) << path;
    EXPECT_EQ(::chdir(cwd), 0);
    std::free(cwd);
    std::remove(file.c_str());
    std::remove(dir);

    for (const auto &[name, value] : vars)
        ::unsetenv(name);
}

TEST_F(OptionsTest, EqualsForm)
{
    ToolOptions to;
    const Options opts = parse({"--jobs=4", "--trace-out=t.json",
                                "--count=192", "--quiet"},
                               {toolFlags(to)});
    EXPECT_EQ(opts.jobs, 4u);
    EXPECT_EQ(opts.traceOut, "t.json");
    EXPECT_EQ(to.count, 192u);
    EXPECT_TRUE(to.quiet);
}

TEST_F(OptionsTest, UnknownArgumentIsFatal)
{
    EXPECT_THROW(parse({"--bogus"}), SimError);
    EXPECT_THROW(parse({"positional"}), SimError);
    // A binary's own rows exist only where it registers them.
    EXPECT_THROW(parse({"--count", "4"}), SimError);
    EXPECT_THROW(parse({"--prof=1"}), SimError);
    EXPECT_THROW(parse({"--jobs"}), SimError);
}

TEST_F(OptionsTest, MalformedNumbersAreFatal)
{
    ToolOptions to;
    for (const std::vector<std::string> &args :
         std::vector<std::vector<std::string>>{
             {"--tool-seed", "abc"},
             {"--count", "12x"},
             {"--count", "4294967296"},
             {"--count", "0"},
             {"--jobs", "-1"},
             {"--cores", "33"},
             {"--trace-ring", ""},
             {"--trace-flags", "checkpoint,redoo"},
             {"--trace-flags", "ckpt"},
             {"--ipi-timeout", "2us"},
         }) {
        EXPECT_THROW(parse(args, {toolFlags(to)}), SimError)
            << args[0] << " " << args[1];
    }
    // Trace categories are checked at parse time, not left to each
    // system to warn about; a valid list passes through verbatim.
    EXPECT_EQ(parse({"--trace-flags", " redo, fault"}).traceFlags,
              " redo, fault");
}

TEST_F(OptionsTest, CoreFaultSpec)
{
    const fault::CoreFaultPlan plan =
        parseCoreFaultSpec("1@2000000,2#3+5000", "test");
    ASSERT_EQ(plan.faults.size(), 2u);
    EXPECT_EQ(plan.faults[0].cpu, 1u);
    EXPECT_EQ(plan.faults[0].atTick, 2000000 * oneNs);
    EXPECT_EQ(plan.faults[0].stallTicks, 0u);
    EXPECT_EQ(plan.faults[1].cpu, 2u);
    EXPECT_EQ(plan.faults[1].atNthIpi, 3u);
    EXPECT_EQ(plan.faults[1].stallTicks, 5000 * oneNs);
    for (const char *bad : {"", "1", "1@0", "1#0", "32@5", "1@5x",
                            "1@5+0", "x@5", "1@5,"}) {
        EXPECT_THROW(parseCoreFaultSpec(bad, "test"), SimError) << bad;
    }
}

TEST_F(OptionsTest, TelemetryOutImpliesOneMsSampling)
{
    EXPECT_EQ(parse({}).sampleInterval, 0u);
    EXPECT_EQ(parse({"--telemetry-out", "t.json"}).sampleInterval,
              oneMs);
    EXPECT_EQ(parse({"--telemetry-out", "t.json", "--sample-interval",
                     "500"})
                  .sampleInterval,
              500 * oneNs);
}

TEST_F(OptionsTest, SampleIntervalWithoutTelemetryOutIsFatal)
{
    // Nothing reads a series that is never exported.
    EXPECT_THROW(parse({"--sample-interval", "500"}), SimError);
    EXPECT_THROW(parse({"--sample-interval=1000000", "--jobs", "2"}),
                 SimError);
    // 0 is the default: the sampler stays off and nothing is paid.
    EXPECT_EQ(parse({"--sample-interval", "0"}).sampleInterval, 0u);
    EXPECT_EQ(parse({"--sample-interval", "500", "--telemetry-out",
                     "t.csv"})
                  .sampleInterval,
              500 * oneNs);
}

TEST_F(OptionsTest, UsageNamesEveryRegisteredRow)
{
    Options opts;
    ToolOptions to;
    const std::vector<FlagTable> tables{runnerFlags(opts), toolFlags(to)};
    std::ostringstream os;
    printUsage(os, "bench", tables);
    const std::string usage = os.str();
    for (const FlagTable &table : tables) {
        EXPECT_NE(usage.find(table.title), std::string::npos);
        for (const Flag &flag : table.flags) {
            EXPECT_NE(usage.find(flag.name), std::string::npos)
                << flag.name;
            EXPECT_NE(usage.find(flag.help), std::string::npos)
                << flag.name;
        }
    }
    EXPECT_EQ(usage.find("(env "), std::string::npos);
}

} // namespace
} // namespace kindle::runner
