#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "bench_util.hh"
#include "runner/fleet_scenario.hh"
#include "runner/options.hh"

namespace kindle::runner
{
namespace
{

class OptionsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setErrorsThrow(true);
        clearEnv();
    }

    void
    TearDown() override
    {
        clearEnv();
        setErrorsThrow(false);
    }

    /** Unset every mirror, so the caller's environment cannot leak in. */
    static void
    clearEnv()
    {
        Options opts;
        FleetOptions fo;
        for (const FlagTable &table :
             {runnerFlags(opts), fleetFlags(fo)}) {
            for (const Flag &flag : table.flags) {
                if (flag.env)
                    ::unsetenv(flag.env);
            }
        }
        ::unsetenv("KINDLE_SCALE");
    }

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

TEST_F(OptionsTest, RunnerFlagBeatsEnvBeatsDefault)
{
    EXPECT_EQ(parse({}).jobs, 0u);
    ::setenv("KINDLE_JOBS", "3", 1);
    EXPECT_EQ(parse({}).jobs, 3u);
    EXPECT_EQ(parse({"--jobs", "5"}).jobs, 5u);
}

TEST_F(OptionsTest, FleetFlagBeatsEnvBeatsDefault)
{
    FleetOptions fo;
    parse({}, {fleetFlags(fo)});
    EXPECT_EQ(fo.params.churnSpawns, 0u);
    ::setenv("KINDLE_FLEET_CHURN", "7", 1);
    parse({}, {fleetFlags(fo)});
    EXPECT_EQ(fo.params.churnSpawns, 7u);
    parse({"--churn", "9"}, {fleetFlags(fo)});
    EXPECT_EQ(fo.params.churnSpawns, 9u);
}

TEST_F(OptionsTest, EmptyEnvKeepsTheDefault)
{
    ::setenv("KINDLE_CORES", "", 1);
    EXPECT_EQ(parse({}).cores, 1u);
}

TEST_F(OptionsTest, SwitchEnvMirrorIsOffAtZero)
{
    ::setenv("KINDLE_PROF", "0", 1);
    EXPECT_FALSE(parse({}).prof);
    ::setenv("KINDLE_PROF", "1", 1);
    EXPECT_TRUE(parse({}).prof);
    ::unsetenv("KINDLE_PROF");
    EXPECT_TRUE(parse({"--prof"}).prof);
}

TEST_F(OptionsTest, EqualsForm)
{
    FleetOptions fo;
    const Options opts = parse({"--jobs=4", "--trace-out=t.json",
                                "--tenants=192", "--no-pressure"},
                               {fleetFlags(fo)});
    EXPECT_EQ(opts.jobs, 4u);
    EXPECT_EQ(opts.traceOut, "t.json");
    EXPECT_EQ(fo.params.tenants, 192u);
    EXPECT_FALSE(fo.pressure);
}

TEST_F(OptionsTest, UnknownArgumentIsFatal)
{
    EXPECT_THROW(parse({"--bogus"}), SimError);
    EXPECT_THROW(parse({"positional"}), SimError);
    // A binary's own rows exist only where it registers them.
    EXPECT_THROW(parse({"--tenants", "4"}), SimError);
    EXPECT_THROW(parse({"--prof=1"}), SimError);
    EXPECT_THROW(parse({"--jobs"}), SimError);
}

TEST_F(OptionsTest, MalformedNumbersAreFatal)
{
    FleetOptions fo;
    for (const std::vector<std::string> &args :
         std::vector<std::vector<std::string>>{
             {"--fleet-seed", "abc"},
             {"--requests", "12x"},
             {"--churn", "4294967296"},
             {"--tenants", "0"},
             {"--jobs", "-1"},
             {"--cores", "33"},
             {"--trace-ring", ""},
             {"--ipi-timeout", "2us"},
         }) {
        EXPECT_THROW(parse(args, {fleetFlags(fo)}), SimError)
            << args[0] << " " << args[1];
    }
    ::setenv("KINDLE_JOBS", "abc", 1);
    EXPECT_THROW(parse({}), SimError);
}

TEST_F(OptionsTest, ScaleFromEnvIsStrict)
{
    EXPECT_EQ(bench::scaleFromEnv(8), 8u);
    ::setenv("KINDLE_SCALE", "", 1);
    EXPECT_EQ(bench::scaleFromEnv(8), 8u);
    ::setenv("KINDLE_SCALE", "2", 1);
    EXPECT_EQ(bench::scaleFromEnv(8), 2u);
    for (const char *bad : {"abc", "0", "12x"}) {
        ::setenv("KINDLE_SCALE", bad, 1);
        EXPECT_THROW(bench::scaleFromEnv(8), SimError) << bad;
    }
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

TEST_F(OptionsTest, UsageNamesEveryRegisteredRow)
{
    Options opts;
    FleetOptions fo;
    const std::vector<FlagTable> tables{runnerFlags(opts),
                                        fleetFlags(fo)};
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
            if (flag.env) {
                EXPECT_NE(usage.find(flag.env), std::string::npos)
                    << flag.env;
            }
        }
    }
}

} // namespace
} // namespace kindle::runner
