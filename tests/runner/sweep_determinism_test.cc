/**
 * @file
 * The runner's contract with DESIGN.md's determinism guarantee:
 * executing a KindleConfig through SweepRunner — at any parallelism —
 * must be bit-identical to running the same config sequentially on a
 * plain KindleSystem: same final tick counts, same BENCH_*.json
 * record.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "kindle/kindle.hh"
#include "kindle/microbench.hh"
#include "prep/replay.hh"
#include "prep/workloads.hh"
#include "runner/report.hh"
#include "runner/sweep_runner.hh"

namespace kindle::runner
{
namespace
{

KindleConfig
referenceConfig()
{
    KindleConfig cfg;
    cfg.memory.dramBytes = 256 * oneMiB;
    cfg.memory.nvmBytes = 512 * oneMiB;
    cfg.persistence = persist::PersistParams{
        persist::PtScheme::rebuild, oneMs};
    return cfg;
}

std::unique_ptr<cpu::OpStream>
referenceProgram()
{
    return micro::seqAllocTouch(4 * oneMiB);
}

Scenario
referenceScenario(const std::string &name)
{
    Scenario sc;
    sc.name = name;
    sc.config = referenceConfig();
    sc.program = &referenceProgram;
    return sc;
}

/** The BENCH_*.json record of one point, without the host's wall_ms. */
std::string
pointJson(Tick ticks, const statistics::StatSnapshot &stats)
{
    RunResult point;
    point.name = "p";
    point.ok = true;
    point.ticks = ticks;
    point.stats = stats;
    BenchReport report("determinism", 1);
    report.omitWallClock();
    report.add(point);
    std::ostringstream os;
    report.writeJson(os);
    return os.str();
}

TEST(SweepDeterminismTest, RunnerMatchesSequentialExecution)
{
    // Reference: a plain sequential KindleSystem run.
    KindleSystem sys(referenceConfig());
    const Tick seq_ticks = sys.run(referenceProgram(), "seq");
    const auto seq_snap = sys.snapshotStats();

    // Same config, twice, through a two-worker SweepRunner.
    SweepRunner pool(2);
    const auto results = pool.run(
        {referenceScenario("a"), referenceScenario("b")});
    ASSERT_EQ(results.size(), 2u);

    for (const auto &r : results) {
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.ticks, seq_ticks);
        EXPECT_TRUE(r.stats == seq_snap);
        EXPECT_EQ(pointJson(r.ticks, r.stats),
                  pointJson(seq_ticks, seq_snap));
    }
    EXPECT_EQ(pointJson(results[0].ticks, results[0].stats),
              pointJson(results[1].ticks, results[1].stats));
}

TEST(SweepDeterminismTest, JobCountDoesNotChangeResults)
{
    // A sweep with distinct points, run at three parallelism levels.
    auto sweep = [] {
        std::vector<Scenario> scenarios;
        for (const std::uint64_t mib : {1, 2, 3, 4}) {
            Scenario sc = referenceScenario(
                "seq/" + std::to_string(mib) + "MiB");
            sc.program = [mib] {
                return micro::seqAllocTouch(mib * oneMiB);
            };
            scenarios.push_back(std::move(sc));
        }
        return scenarios;
    };

    const auto serial = SweepRunner(1).run(sweep());
    const auto two = SweepRunner(2).run(sweep());
    const auto four = SweepRunner(4).run(sweep());

    ASSERT_EQ(serial.size(), 4u);
    ASSERT_EQ(two.size(), 4u);
    ASSERT_EQ(four.size(), 4u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << serial[i].error;
        EXPECT_EQ(serial[i].ticks, two[i].ticks);
        EXPECT_EQ(serial[i].ticks, four[i].ticks);
        EXPECT_TRUE(serial[i].stats == two[i].stats);
        EXPECT_TRUE(serial[i].stats == four[i].stats);
    }
}

TEST(SweepDeterminismTest, TraceWorkloadsDeterministicUnderRunner)
{
    // Workload generation (seeded RNG) inside worker threads must not
    // perturb determinism either.
    auto scenario = [](const std::string &name) {
        Scenario sc;
        sc.name = name;
        sc.config.memory.dramBytes = 256 * oneMiB;
        sc.config.memory.nvmBytes = 512 * oneMiB;
        hscc::HsccParams hp;
        hp.migrationInterval = oneMs;
        hp.fetchThreshold = 3;
        sc.config.hscc = hp;
        sc.program = []() -> std::unique_ptr<cpu::OpStream> {
            prep::WorkloadParams wp;
            wp.ops = 20000;
            wp.scaleDown = 64;
            return std::make_unique<prep::OwningReplayStream>(
                prep::makeWorkload(prep::Benchmark::g500Sssp, wp),
                prep::ReplayConfig{});
        };
        return sc;
    };

    SweepRunner pool(2);
    const auto results =
        pool.run({scenario("t0"), scenario("t1")});
    ASSERT_EQ(results.size(), 2u);
    ASSERT_TRUE(results[0].ok) << results[0].error;
    ASSERT_TRUE(results[1].ok) << results[1].error;
    EXPECT_EQ(results[0].ticks, results[1].ticks);
    EXPECT_TRUE(results[0].stats == results[1].stats);
}

} // namespace
} // namespace kindle::runner
