/**
 * @file
 * Sampler semantics against a hand-driven stat tree: rate channels as
 * non-negative per-interval deltas that sum back to the counter
 * totals (including Histogram ::count/::sum paths and the post-reset
 * clamp), level channels as instants, the decimation bound, and the
 * sampled-run determinism the sweep contract extends to TELEM_* files.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "kindle/kindle.hh"
#include "kindle/microbench.hh"
#include "sim/simulation.hh"
#include "telemetry/telemetry.hh"

namespace kindle::telemetry
{
namespace
{

/** A minimal machine: one stat group mutated tick by tick. */
struct Rig
{
    sim::Simulation sim;
    statistics::StatGroup root{"m", "sampler test rig"};
    statistics::Scalar &ops = root.addScalar("ops", "operations");
    statistics::Gauge &depth = root.addGauge("depth", "queue depth");
    statistics::Histogram &lat = root.addHistogram("lat", "latency");

    TelemetryParams
    params(Tick interval, std::size_t max_samples = 4096) const
    {
        TelemetryParams p;
        p.sampleInterval = interval;
        p.maxSamples = max_samples;
        return p;
    }

    Sampler
    makeSampler(Tick interval, std::size_t max_samples = 4096)
    {
        return Sampler(sim, params(interval, max_samples), [this] {
            return statistics::StatSnapshot::capture(root);
        });
    }

    /** Advance one tick, mutate via @p fn, then fire due events. */
    template <typename Fn>
    void
    step(Fn &&fn)
    {
        sim.bump(1);
        fn();
        sim.service();
    }
};

TEST(SamplerTest, RateDeltasAreNonNegativeAndSumToTotals)
{
    Rig rig;
    Sampler s = rig.makeSampler(10);
    s.addStatChannel("ops", Sampler::Kind::rate, "m.ops");
    s.addStatChannel("latCount", Sampler::Kind::rate, "m.lat::count");
    s.addStatChannel("latSum", Sampler::Kind::rate, "m.lat::sum");
    s.start();

    for (int i = 1; i <= 100; ++i) {
        rig.step([&] {
            rig.ops += i % 7;
            rig.lat.sample(i);
        });
    }

    ASSERT_EQ(s.samples().size(), 10u);
    double ops_sum = 0, count_sum = 0, lat_sum = 0;
    for (const Sampler::Sample &sample : s.samples()) {
        ASSERT_EQ(sample.values.size(), 3u);
        for (double v : sample.values)
            EXPECT_GE(v, 0);
        ops_sum += sample.values[0];
        count_sum += sample.values[1];
        lat_sum += sample.values[2];
    }
    // The run ends exactly on a sample tick, so the per-interval
    // deltas partition the whole run.
    EXPECT_EQ(ops_sum, rig.ops.value());
    EXPECT_EQ(count_sum, 100);
    EXPECT_EQ(lat_sum, rig.lat.sum());
}

TEST(SamplerTest, LevelChannelRecordsInstantAtSampleTick)
{
    Rig rig;
    Sampler s = rig.makeSampler(10);
    s.addStatChannel("depth", Sampler::Kind::level, "m.depth");
    s.start();

    for (int i = 1; i <= 40; ++i)
        rig.step([&] { rig.depth = i; });

    ASSERT_EQ(s.samples().size(), 4u);
    for (std::size_t j = 0; j < s.samples().size(); ++j) {
        // Gauge level at tick 10(j+1), not a delta and not an average.
        EXPECT_EQ(s.samples()[j].tick, Tick(10 * (j + 1)));
        EXPECT_EQ(s.samples()[j].values[0], 10.0 * (j + 1));
    }
}

TEST(SamplerTest, CallbackChannelAndMissingStatPath)
{
    Rig rig;
    double side_value = 0;
    Sampler s = rig.makeSampler(10);
    s.addCallbackChannel("side", Sampler::Kind::level,
                         [&] { return side_value; });
    // Lazily registered stats may be absent from early snapshots;
    // they must read as zero, not fail.
    s.addStatChannel("ghost", Sampler::Kind::rate, "m.notYet");
    s.start();

    for (int i = 1; i <= 20; ++i)
        rig.step([&] { side_value = i * 2; });

    ASSERT_EQ(s.samples().size(), 2u);
    EXPECT_EQ(s.samples()[0].values[0], 20);
    EXPECT_EQ(s.samples()[1].values[0], 40);
    EXPECT_EQ(s.samples()[0].values[1], 0);
    EXPECT_EQ(s.samples()[1].values[1], 0);
}

TEST(SamplerTest, CounterRestartClampsDeltaToRaw)
{
    // A crash/reboot replaces the kernel and its stat tree; model it
    // as a fresh group taking over the sampled path.
    Rig rig;
    auto tree = std::make_unique<statistics::StatGroup>("m");
    statistics::Scalar *ops = &tree->addScalar("ops", "operations");
    Sampler s(rig.sim, rig.params(10), [&] {
        return statistics::StatSnapshot::capture(*tree);
    });
    s.addStatChannel("ops", Sampler::Kind::rate, "m.ops");
    s.start();

    for (int i = 1; i <= 10; ++i)
        rig.step([&] { *ops += 5; });
    ASSERT_EQ(s.samples().size(), 1u);
    EXPECT_EQ(s.samples()[0].values[0], 50);

    // The restarted counter reads lower than the last sample: the
    // next delta must clamp to its raw value instead of going
    // negative.
    tree = std::make_unique<statistics::StatGroup>("m");
    ops = &tree->addScalar("ops", "operations");
    for (int i = 1; i <= 10; ++i)
        rig.step([&] { *ops += 1; });
    ASSERT_EQ(s.samples().size(), 2u);
    EXPECT_EQ(s.samples()[1].values[0], 10);
}

TEST(SamplerTest, DecimationBoundsSeriesAndPreservesRateSums)
{
    Rig rig;
    Sampler s = rig.makeSampler(10, /*max_samples=*/4);
    s.addStatChannel("ops", Sampler::Kind::rate, "m.ops");
    s.addStatChannel("depth", Sampler::Kind::level, "m.depth");
    s.start();

    for (int i = 1; i <= 640; ++i) {
        rig.step([&] {
            rig.ops += 1;
            rig.depth = i;
        });
    }

    ASSERT_LE(s.samples().size(), 4u);
    ASSERT_GE(s.samples().size(), 2u);
    EXPECT_GT(s.effectiveInterval(), Tick(10));

    // Merging pairs adds rates, so deltas still sum to the counter's
    // value at the last recorded tick (one op per tick here); merged
    // levels keep the later instant, so depth equals its sample tick.
    double ops_sum = 0;
    for (const Sampler::Sample &sample : s.samples()) {
        ops_sum += sample.values[0];
        EXPECT_EQ(sample.values[1],
                  static_cast<double>(sample.tick));
    }
    EXPECT_EQ(ops_sum, static_cast<double>(s.samples().back().tick));
}

TEST(SamplerTest, ExportFormatsMatchChannels)
{
    Rig rig;
    Sampler s = rig.makeSampler(10);
    s.addStatChannel("ops", Sampler::Kind::rate, "m.ops");
    s.addStatChannel("depth", Sampler::Kind::level, "m.depth");
    s.start();
    for (int i = 1; i <= 20; ++i)
        rig.step([&] { rig.ops += 2; });

    std::ostringstream json;
    s.writeJson(json);
    EXPECT_NE(json.str().find("\"channels\""), std::string::npos);
    EXPECT_NE(json.str().find("\"samples\""), std::string::npos);
    EXPECT_NE(json.str().find("\"ops\""), std::string::npos);

    std::ostringstream csv;
    s.writeCsv(csv);
    EXPECT_EQ(csv.str().rfind("tick,ops,depth\n", 0), 0u);
}

/** Telemetry export of a sampled run, as the runner would write it. */
std::string
sampledRun(unsigned cores)
{
    KindleConfig cfg;
    cfg.memory.dramBytes = 128 * oneMiB;
    cfg.memory.nvmBytes = 128 * oneMiB;
    cfg.numCores = cores;
    cfg.telemetry.sampleInterval = 100 * oneUs;
    KindleSystem sys(cfg);
    sys.run(micro::seqAllocTouch(4 * oneMiB), "telem");
    std::ostringstream os;
    sys.writeTelemetry(os);
    return os.str();
}

TEST(SamplerTest, SampledRunsAreDeterministicSingleCore)
{
    const std::string first = sampledRun(1);
    EXPECT_NE(first.find("\"samples\""), std::string::npos);
    EXPECT_EQ(first, sampledRun(1));
}

TEST(SamplerTest, SampledRunsAreDeterministicFourCores)
{
    const std::string first = sampledRun(4);
    EXPECT_NE(first.find("\"samples\""), std::string::npos);
    EXPECT_EQ(first, sampledRun(4));
}

} // namespace
} // namespace kindle::telemetry
