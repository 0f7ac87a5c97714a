#include <gtest/gtest.h>

#include <sstream>

#include "kindle/kindle.hh"
#include "kindle/microbench.hh"
#include "runner/report.hh"
#include "runner/sweep_runner.hh"

namespace kindle::runner
{
namespace
{

Scenario
smallPersistScenario(persist::PtScheme scheme, std::uint64_t bytes,
                     std::string name)
{
    Scenario sc;
    sc.name = std::move(name);
    sc.axes = {{"scheme",
                scheme == persist::PtScheme::rebuild ? "rebuild"
                                                     : "persistent"},
               {"bytes", std::to_string(bytes)}};
    sc.config.memory.dramBytes = 256 * oneMiB;
    sc.config.memory.nvmBytes = 256 * oneMiB;
    sc.config.persistence =
        persist::PersistParams{scheme, oneMs};
    sc.program = [bytes] {
        return micro::seqAllocTouch(bytes);
    };
    return sc;
}

std::vector<Scenario>
smallSweep()
{
    return {
        smallPersistScenario(persist::PtScheme::rebuild, oneMiB,
                             "rebuild/1MiB"),
        smallPersistScenario(persist::PtScheme::persistent, oneMiB,
                             "persistent/1MiB"),
        smallPersistScenario(persist::PtScheme::rebuild, 2 * oneMiB,
                             "rebuild/2MiB"),
        smallPersistScenario(persist::PtScheme::persistent,
                             2 * oneMiB, "persistent/2MiB"),
    };
}

TEST(SweepRunnerTest, ResultsArriveInScenarioOrder)
{
    SweepRunner pool(2);
    const auto results = pool.run(smallSweep());
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].name, "rebuild/1MiB");
    EXPECT_EQ(results[1].name, "persistent/1MiB");
    EXPECT_EQ(results[2].name, "rebuild/2MiB");
    EXPECT_EQ(results[3].name, "persistent/2MiB");
    for (const auto &r : results) {
        EXPECT_TRUE(r.ok) << r.error;
        EXPECT_GT(r.ticks, 0u);
        ASSERT_EQ(r.axes.size(), 2u);
        EXPECT_EQ(r.axes[0].first, "scheme");
    }
}

TEST(SweepRunnerTest, ResultCarriesStatSnapshot)
{
    const RunResult result = SweepRunner(1).run({smallPersistScenario(
        persist::PtScheme::rebuild, oneMiB, "one")})[0];
    ASSERT_TRUE(result.ok) << result.error;
    // Forest roots from every configured component.
    EXPECT_TRUE(result.stats.has("core.memOps"));
    EXPECT_TRUE(result.stats.has("hybridMem.crashes"));
    EXPECT_TRUE(result.stats.has("cacheHierarchy.accesses"));
    EXPECT_TRUE(result.stats.has("kernel.syscalls"));
    EXPECT_GT(result.stats.get("persist.checkpoints"), 0);
}

TEST(SweepRunnerTest, ZeroJobsMeansHardwareParallelism)
{
    SweepRunner pool(0);
    EXPECT_GE(pool.jobs(), 1u);
}

TEST(SweepRunnerTest, ThrowingScenarioIsReportedNotFatal)
{
    Scenario sc;
    sc.name = "broken";
    sc.config.memory.dramBytes = 128 * oneMiB;
    sc.config.memory.nvmBytes = 128 * oneMiB;
    sc.program = []() -> std::unique_ptr<cpu::OpStream> {
        throw std::runtime_error("workload generator exploded");
    };

    SweepRunner pool(1);
    const auto results = pool.run({sc});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_NE(results[0].error.find("exploded"), std::string::npos);
}

TEST(SweepRunnerTest, MoreJobsThanScenariosIsFine)
{
    SweepRunner pool(16);
    const auto results = pool.run(
        {smallPersistScenario(persist::PtScheme::rebuild, oneMiB,
                              "only")});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
}

TEST(SweepRunnerTest, MachineOverridesApplyOutsideTheRunner)
{
    Options opts;
    opts.cores = 4;
    opts.ipiTimeout = 5 * oneUs;
    opts.coreFault = parseCoreFaultSpec("1@2000000", "test");

    KindleConfig plain;
    applyMachineOverrides(opts, plain);
    EXPECT_EQ(plain.numCores, 4u);
    EXPECT_EQ(plain.kernel.ipiAckTimeout, 5 * oneUs);
    ASSERT_TRUE(plain.kernel.coreFaults.enabled());
    EXPECT_EQ(plain.kernel.coreFaults.faults.at(0).cpu, 1u);

    // A scenario's own core-fault plan wins over --core-fail.
    KindleConfig own;
    own.kernel.coreFaults = parseCoreFaultSpec("2#3", "test");
    applyMachineOverrides(opts, own);
    EXPECT_EQ(own.kernel.coreFaults.faults.at(0).cpu, 2u);

    // Defaults leave the config alone.
    KindleConfig untouched;
    untouched.numCores = 2;
    applyMachineOverrides(Options{}, untouched);
    EXPECT_EQ(untouched.numCores, 2u);
    EXPECT_FALSE(untouched.kernel.coreFaults.enabled());
}

TEST(SweepRunnerTest, CoresOverrideSparesPointsThatOwnTheirCoreCount)
{
    // A core-count sweep (fleet_storm's c1/c4 points) must keep each
    // point's machine under --cores; other points still take it.
    const auto probe = [](std::string name, unsigned cores, bool owns) {
        Scenario sc = smallPersistScenario(persist::PtScheme::rebuild,
                                           oneMiB, std::move(name));
        sc.config.numCores = cores;
        sc.ownsCores = owns;
        sc.drive = [](KindleSystem &sys, statistics::StatSnapshot &extra) {
            extra.set("probe.cores", sys.numCores());
            return Tick{0};
        };
        return sc;
    };
    Options opts;
    opts.jobs = 1;
    opts.cores = 4;
    SweepRunner pool(opts);
    const auto results = pool.run({probe("c1", 1, true),
                                   probe("c2", 2, true),
                                   probe("free", 1, false)});
    ASSERT_EQ(results.size(), 3u);
    for (const auto &r : results)
        ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(results[0].stats.get("probe.cores"), 1.0);
    EXPECT_EQ(results[1].stats.get("probe.cores"), 2.0);
    EXPECT_EQ(results[2].stats.get("probe.cores"), 4.0);
}

} // namespace
} // namespace kindle::runner
