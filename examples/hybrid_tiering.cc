/**
 * @file
 * Capacity-tier scenario: a skewed key-value workload (the Ycsb_mem
 * generator) whose data lives in the big NVM tier, with HSCC using a
 * small DRAM pool as a hardware/software-cooperative cache.  Shows
 * hot pages migrating to DRAM and what the OS side of that costs.
 */

#include <cstdio>

#include "kindle/kindle.hh"
#include "prep/replay.hh"
#include "prep/workloads.hh"

int
main()
{
    using namespace kindle;

    constexpr std::uint64_t ops = 100000;

    KindleConfig cfg;
    hscc::HsccParams hp;
    hp.fetchThreshold = 5;
    hp.dramPoolPages = 512;  // the paper's pool size
    // The example run is much shorter than the paper's 31.25 ms
    // interval; migrate every 2 ms so the cooperative cache is visibly
    // exercised.
    hp.migrationInterval = 2 * oneMs;
    cfg.hscc = hp;
    KindleSystem sys(cfg);

    prep::WorkloadParams wp;
    wp.ops = ops;
    wp.scaleDown = 8;
    auto trace = prep::makeWorkload(prep::Benchmark::ycsbMem, wp);

    prep::ReplayConfig rc;
    rc.heapsInNvm = true;  // records live in the capacity tier
    auto program = std::make_unique<prep::ReplayStream>(*trace, rc);

    std::printf("hybrid tiering: %llu YCSB ops over %s of NVM-resident "
                "records, %u-page DRAM cache pool\n",
                (unsigned long long)ops,
                sizeToString(trace->layout().totalBytes()).c_str(),
                hp.dramPoolPages);

    const Tick elapsed = sys.run(std::move(program), "ycsb");

    auto *engine = sys.hsccEngine();
    std::printf("ran %.3f ms simulated\n", ticksToMs(elapsed));
    std::printf("  migration intervals: %.0f\n",
                engine->stats().scalarValue("intervals"));
    std::printf("  pages migrated to DRAM: %llu\n",
                (unsigned long long)engine->pagesMigrated());
    std::printf("  displaced cache pages: %.0f (dirty copy-backs: "
                "%.0f)\n",
                engine->stats().scalarValue("reverts"),
                engine->stats().scalarValue("copyBacks"));
    const double sel = static_cast<double>(engine->selectionTicks());
    const double cp = static_cast<double>(engine->copyTicks());
    if (sel + cp > 0) {
        std::printf("  OS migration time: %.3f ms (%.1f%% selection, "
                    "%.1f%% copy)\n",
                    ticksToMs(engine->migrationTicks()),
                    100.0 * sel / (sel + cp),
                    100.0 * cp / (sel + cp));
    }
    return 0;
}
