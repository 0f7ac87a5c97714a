#include "runner/fleet_scenario.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "base/intmath.hh"
#include "base/rand.hh"

namespace kindle::runner
{

KindleConfig
makeFleetConfig(const FleetOptions &opts, unsigned cores)
{
    const fleet::FleetParams &fp = opts.params;
    KindleConfig cfg;
    cfg.memory.dramBytes = 256 * oneMiB;
    cfg.memory.nvmBytes = 1024 * oneMiB;
    cfg.numCores = cores;

    // Every concurrent tenant needs a saved-state slot; churn
    // replacements recycle the slots their predecessors freed, so the
    // fleet size (plus a little headroom) bounds occupancy.
    cfg.kernel.nvmLayout.procSlots = fp.tenants + 8;
    // Mapping lists sized to the largest tenant heap instead of the
    // historical per-process 4 MiB — at 1k+ slots the default would
    // swallow the whole device.
    const std::uint64_t list_bytes =
        std::max<std::uint64_t>(fp.largePages * 16 * 2, 16 * oneKiB);
    cfg.kernel.nvmLayout.mappingListBytesPerProc =
        roundUp(list_bytes, pageSize);
    // Checkpoint storms over the whole population between truncations.
    cfg.kernel.nvmLayout.redoLogBytes = 32 * oneMiB;
    // Short quanta keep many tenants genuinely time-shared per
    // checkpoint interval.
    cfg.kernel.timeslice = 50 * oneUs;

    // Checkpoint storms: every 2 ms the sweep visits the population.
    const Tick ckpt_interval = 2 * oneMs;
    cfg.persistence = persist::PersistParams{persist::PtScheme::rebuild,
                                             ckpt_interval};
    cfg.persistence->incrementalMappingList = true;

    fault::PressurePlan &pp = cfg.kernel.pressure;
    // The fleet's aggregate resident demand (tenants × hot set) must
    // exceed both zones: MAP_NVM faults degrade to DRAM once NVM dips
    // to the reserve, DRAM exhaustion drives reclaim demotions, and the
    // worst offenders meet the OOM killer — whose kills the churn
    // driver backfills.
    pp.nvmZoneFrames =
        std::max<std::uint64_t>(std::uint64_t(fp.tenants) * 6, 512);
    pp.dramZoneFrames =
        std::max<std::uint64_t>(std::uint64_t(fp.tenants) * 5, 1024);
    pp.seed = rand::deriveSeed(fp.seed, 0x9e55);
    pp.allocFailRate = 0.0;  // exhaustion pressure, not injection
    // The NVM zone spends the whole run pinned at its cap, so
    // unthrottled relief would convert every patrol pass into a
    // whole-population early checkpoint; at most match the periodic
    // cadence instead of multiplying it.
    pp.reclaimCheckpointMinGap = ckpt_interval;
    return cfg;
}

Scenario
makeFleetScenario(std::string name, Axes axes, const FleetOptions &opts,
                  unsigned cores)
{
    Scenario sc;
    sc.name = std::move(name);
    sc.axes = std::move(axes);
    sc.config = makeFleetConfig(opts, cores);
    sc.ownsCores = true;
    sc.drive = [params = opts.params](
                   KindleSystem &sys,
                   statistics::StatSnapshot &extra) -> Tick {
        const Tick t0 = sys.now();
        os::Kernel &kernel = sys.kernel();
        auto counters = std::make_shared<fleet::FleetCounters>();

        unsigned next_ordinal = 0;
        const auto spawnOne = [&] {
            kernel.spawn(
                fleet::makeTenant(params, next_ordinal,
                                  counters.get()),
                fleet::tenantName(next_ordinal));
            ++next_ordinal;
        };
        for (unsigned i = 0; i < params.tenants; ++i)
            spawnOne();

        unsigned churn_left = params.churnSpawns;
        unsigned peak_live = kernel.liveProcessCount();
        // Epoch slices between respawn sweeps: long enough to amortize
        // the population scan, short against the checkpoint interval
        // so churn lands inside storms.
        const Tick slice = oneMs / 2;
        for (;;) {
            const unsigned live = kernel.liveProcessCount();
            peak_live = std::max(peak_live, live);
            if (live < params.tenants && churn_left > 0) {
                const unsigned deficit = params.tenants - live;
                const unsigned n = std::min(deficit, churn_left);
                for (unsigned i = 0; i < n; ++i)
                    spawnOne();
                churn_left -= n;
            } else if (live == 0) {
                break;
            }
            kernel.runUntil(sys.now() + slice);
        }

        extra.set("fleet.tenants",
                  static_cast<double>(params.tenants));
        extra.set("fleet.spawned", static_cast<double>(next_ordinal));
        extra.set("fleet.churnSpawns",
                  static_cast<double>(next_ordinal - params.tenants));
        extra.set("fleet.peakLive", static_cast<double>(peak_live));
        extra.set("fleet.requests",
                  static_cast<double>(counters->requests));
        extra.set("fleet.reads",
                  static_cast<double>(counters->reads));
        extra.set("fleet.writes",
                  static_cast<double>(counters->writes));
        return sys.now() - t0;
    };
    return sc;
}

} // namespace kindle::runner
