/**
 * @file
 * The full Kindle preparation→simulation pipeline from Figure 3:
 *
 *   1. "trace" an application (here: the Gapbs_pr generator standing
 *      in for the Pin-instrumented binary),
 *   2. run the image generator to pack layout + tuples into a disk
 *      image,
 *   3. mount the image on the simulation side, instantiate the replay
 *      template, and run it on the full system with process
 *      persistence enabled.
 */

#include <cstdio>

#include "kindle/kindle.hh"
#include "prep/image_file.hh"
#include "prep/replay.hh"
#include "prep/workloads.hh"

int
main()
{
    using namespace kindle;

    constexpr std::uint64_t ops = 100000;
    const std::string image_path = "/tmp/kindle_gapbs_pr.img";

    // --- Preparation component --------------------------------------
    prep::WorkloadParams wp;
    wp.ops = ops;
    wp.scaleDown = 8;
    auto traced = prep::makeWorkload(prep::Benchmark::gapbsPr, wp);

    std::printf("preparation: traced %llu memory ops of %s\n",
                (unsigned long long)ops, traced->name().c_str());
    std::printf("  captured layout (maps + SniP stacks):\n");
    for (const auto &area : traced->layout().areas) {
        std::printf("    area %-2u %-10s %8s  (%s)\n", area.areaId,
                    area.name.c_str(),
                    sizeToString(area.sizeBytes).c_str(),
                    area.kind == prep::AreaKind::stack ? "stack"
                                                       : "heap");
    }

    prep::ImageFile::write(image_path, *traced);
    std::printf("  image generator wrote %s\n", image_path.c_str());

    // --- Simulation component ---------------------------------------
    prep::TraceImage image = prep::ImageFile::read(image_path);
    const prep::TraceStats stats = image.stats();
    std::printf("simulation: mounted image with %llu records "
                "(%.0f%% read / %.0f%% write)\n",
                (unsigned long long)stats.totalOps, stats.readPct(),
                stats.writePct());

    KindleConfig cfg;
    // 1 ms checkpoints so the short default replay still shows
    // persistence activity (the paper's 10 ms exceeds this run).
    cfg.persistence = persist::PersistParams{
        persist::PtScheme::rebuild, oneMs};
    KindleSystem sys(cfg);

    prep::ReplayConfig rc;
    rc.heapsInNvm = true;
    auto program = std::make_unique<prep::ReplayStream>(image, rc);

    const Tick elapsed = sys.run(std::move(program), image.name());
    std::printf("  replayed in %.3f ms simulated time\n",
                ticksToMs(elapsed));
    std::printf("  checkpoints during the run: %llu\n",
                (unsigned long long)
                    sys.persistence()->checkpointsTaken());
    const double nvm_mib = sys.memory()
                               .nvmCtrl()
                               .device()
                               .stats()
                               .scalarValue("bytes") /
                           static_cast<double>(oneMiB);
    std::printf("  NVM device traffic: %.1f MiB\n", nvm_mib);

    std::remove(image_path.c_str());
    return 0;
}
