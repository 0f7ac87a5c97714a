/**
 * @file
 * Crash-point fuzz driver: the recovery audit over every fault plane.
 *
 * For each bucket the driver first takes a *golden run* — the
 * workload executed with an unarmed (observe-only) injector — to learn
 * (a) how often every named crash site fires, (b) how many durable NVM
 * writes the controller accepts, and (c) the set of committed
 * checkpoint states (the recovery oracle: any state a recovered
 * process may legally resume from).  It then sweeps crash points over
 * that space: a site × occurrence grid covering every site the golden
 * run hit, padded with seeded-random Nth-durable-write points.  Each
 * point runs the same workload with an armed FaultPlan, rides the
 * injected PowerLoss into crash()+reboot(), and audits the outcome:
 *
 *   - oracle: every recovered process resumes from a committed state,
 *   - recovery idempotence: the recovered image is crashed again
 *     without running and must recover to the *same* process states,
 *   - liveness: the twice-recovered machine still checkpoints.
 *
 * A point is CLEAN when recovery reported no errors, SALVAGED when it
 * classified damage (quarantined slots, torn log tails) but every
 * surviving process validated, FAILED when an audit broke.
 *
 * Fault planes (--faults, a comma list; crash points are always swept):
 *
 *   media     seeded transient NVM bit flips on line writes plus the
 *             patrol scrubber, on the golden run and every point: the
 *             oracle must hold while ECC corrects upsets underneath,
 *   pressure  shrunken DRAM/NVM zones, injected allocation failures,
 *             watermark reclaim, redo-log backpressure and the OOM
 *             killer; the workload becomes an allocation storm (a DRAM
 *             hog, a churning foreground, long-lived DRAM background
 *             mutators) that must survive on graceful paths only,
 *   core      one seeded CPU fault per bucket — die_tick (core 1
 *             fail-stops at 2 ms; the watchdog offlines it), die_ipi
 *             (core 2 fail-stops at its 2nd received shootdown IPI;
 *             the initiator's resend budget runs out) or stall_ipi
 *             (core 1 stalls 1.5 ack-timeouts at its 1st IPI; the
 *             resend must succeed without an offline).  Reboots re-arm
 *             the fault, so recovery runs on the degraded machine.
 *
 * A bucket is one page-table scheme, crossed with one core spec when
 * the core plane is set.  Without the pressure plane the foreground is
 * a touch + churn + compute script with short NVM background mutators
 * on the extra cores.  Golden-run tripwires fail the sweep when a
 * bucket does not exercise what it claims to cover (no checkpoint, no
 * demotion or OOM kill under pressure, no offline or IPI retry where
 * its core spec promises one).
 *
 * Flags (besides the common runner set, whose --cores sizes the
 * machine: N-1 background mutators join the foreground):
 *   --points N          crash points per scheme (default 128), split
 *                       over the core specs when the core plane is set
 *   --seed N            sweep seed (default 12345)
 *   --faults LIST       fault planes: media,pressure,core
 *   --filter STR        run only points whose name contains STR
 *   --force-divergence  count every point as an oracle divergence — a
 *                       self-test of the failure path
 *
 * The core plane runs 4 cores unless --cores names another width of
 * at least 3 (the specs target cores 1 and 2).
 *
 * Every FAILED point prints a one-line `repro:` command that re-runs
 * just that point single-threaded, and dumps the system's flight
 * recorder as FLIGHT_fuzz.<point>.json (or to --flight-out).
 * Everything is deterministic: a fixed seed reproduces the same sweep
 * and a byte-identical BENCH_fuzz.json (wall-clock is omitted).
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "base/rand.hh"
#include "base/random.hh"
#include "bench_util.hh"
#include "kindle/kindle.hh"
#include "kindle/microbench.hh"
#include "runner/options.hh"
#include "runner/report.hh"

namespace
{

using namespace kindle;
using namespace kindle::bench;

/** Committed states a recovered process may legally resume from. */
using Oracle = std::set<std::pair<std::uint64_t, std::uint64_t>>;

/** Per-process recovered state, for the idempotence comparison. */
using RecoveredSet =
    std::set<std::tuple<Pid, std::uint64_t, std::uint64_t>>;

/** What a golden run learns about the crash-point space. */
struct Golden
{
    std::map<std::string, std::uint64_t> hits;
    std::uint64_t durableWrites = 0;
    Oracle committed;
};

/** Driver-local flags, pre-parsed before runner::parseOptions (which
 *  is fatal on anything it does not recognize). */
struct FuzzOptions
{
    std::uint64_t points = 128;
    std::uint64_t seed = 12345;
    std::string faults;
    bool media = false;
    bool pressure = false;
    bool core = false;
    std::string filter;
    bool forceDivergence = false;
};

/** One seeded core fault, plus what its golden run must prove. */
struct CoreSpec
{
    const char *name;
    fault::CoreFault fault;
    bool expectOffline;  // golden must hit core.pre_offline
    bool expectRetry;    // golden must hit ipi.pre_retry
};

std::vector<CoreSpec>
coreSpecs()
{
    CoreSpec die_tick{"die_tick", {}, true, false};
    die_tick.fault.cpu = 1;
    die_tick.fault.atTick = 2 * oneMs;
    CoreSpec die_ipi{"die_ipi", {}, true, true};
    die_ipi.fault.cpu = 2;
    die_ipi.fault.atNthIpi = 2;
    // 1.5 ack-timeouts: long enough that the first resend still finds
    // the core stalled, short enough that the budget (3 resends) is
    // never exhausted — retry must succeed.
    CoreSpec stall_ipi{"stall_ipi", {}, false, true};
    stall_ipi.fault.cpu = 1;
    stall_ipi.fault.atNthIpi = 1;
    stall_ipi.fault.stallTicks = 3 * oneUs;
    return {die_tick, die_ipi, stall_ipi};
}

/** One scheme × (core spec or none): a golden run and its points. */
struct Bucket
{
    persist::PtScheme scheme;
    const CoreSpec *spec;  // null without the core plane
    std::string name;
    std::uint64_t points;
    std::uint64_t seed;
};

KindleConfig
makeConfig(const FuzzOptions &fz, const Bucket &bucket, unsigned cores)
{
    KindleConfig cfg;
    cfg.memory.dramBytes = 128 * oneMiB;
    cfg.memory.nvmBytes = 256 * oneMiB;
    cfg.numCores = cores;
    cfg.persistence = persist::PersistParams{bucket.scheme, oneMs / 4};
    if (bucket.spec) {
        fault::CoreFaultPlan plan;
        plan.faults.push_back(bucket.spec->fault);
        cfg.coreFault = plan;
    }
    if (fz.media) {
        // The golden run and every point share one medium, or the
        // oracle would describe a different machine.
        cfg.fault = fault::FaultPlan{};  // unarmed: media config only
        cfg.fault->media.bitFlipRate = 1e-3;  // SECDED-correctable
        cfg.fault->media.seed = 99;  // fixed: independent of --seed
        cfg.scrub = mem::ScrubParams{oneMs / 4, 16 * oneMiB};
    }
    if (fz.pressure) {
        // A short quantum keeps the hog and the churner genuinely
        // time-shared, so their resident sets overlap at peak.
        cfg.kernel.timeslice = 50 * oneUs;
        fault::PressurePlan &pp = cfg.pressure.emplace();
        pp.dramZoneFrames = 160;
        pp.nvmZoneFrames = 96;
        pp.allocFailRate = 0.02;
        pp.seed = 7;  // fixed: golden run and points share one regime
        pp.oomEnabled = true;
        // Above the demotion stall floor (the retirement reserve), so
        // the patrol observes "below low" while the zone saturates and
        // exercises the early-checkpoint relief path.  Do not tighten
        // the reclaim interval below the cost of a patrol pass:
        // nested patrols livelock the event queue.
        pp.nvmLowWatermark = 12;
        pp.nvmHighWatermark = 24;
    }
    return cfg;
}

/**
 * Spawn the bucket's workload and run it to completion (or to the
 * injected PowerLoss).  Without pressure: a touch + churn + compute
 * foreground, whose munmaps broadcast the shootdown IPIs the core
 * specs trigger on, and short NVM background mutators.  Under
 * pressure: a DRAM hog, a storm foreground that keeps its DRAM extras
 * mostly mapped, and long-lived DRAM background mutators — some
 * process is then always off-core with real DRAM leaves, so reclaim
 * has demotion victims and the hog is the first OOM victim.
 */
void
runWorkload(KindleSystem &sys, bool pressure, unsigned cores)
{
    if (pressure) {
        // Progressive growth in lock-step with the storm, so the two
        // resident sets peak together and exhaust both zones.
        micro::ScriptBuilder hog;
        const Addr hog_base =
            micro::scriptBase + Addr(0x8000) * pageSize;
        for (int r = 0; r < 10; ++r) {
            hog.compute(300000);
            const Addr chunk = hog_base + Addr(r) * 20 * pageSize;
            hog.mmapFixed(chunk, 20 * pageSize, false);
            hog.touchPages(chunk, 20 * pageSize);
        }
        hog.exit();
        sys.kernel().spawn(hog.build(), "hog");
    }
    for (unsigned i = 1; i < cores; ++i) {
        micro::ScriptBuilder b;
        const Addr base =
            micro::scriptBase + Addr(0x1000) * pageSize * i;
        b.mmapFixed(base, 16 * pageSize, !pressure);
        b.touchPages(base, 16 * pageSize);
        for (int r = 0; r < (pressure ? 20 : 6); ++r) {
            b.compute(200000 + 50000 * static_cast<int>(i));
            b.touchPages(base, 8 * pageSize);
        }
        b.exit();
        sys.kernel().spawn(b.build(), "bg" + std::to_string(i));
    }

    micro::ScriptBuilder b;
    const Addr head = pressure ? 32 : 48;
    const Addr extra_pages = pressure ? 16 : 8;
    const Addr stride = pressure ? 24 : 16;
    b.mmapFixed(micro::scriptBase, head * pageSize, true);
    b.touchPages(micro::scriptBase, head * pageSize);
    for (int r = 0; r < 10; ++r) {
        b.compute(pressure ? 250000 : 500000);
        const Addr extra =
            micro::scriptBase + (64 + Addr(r) * stride) * pageSize;
        b.mmapFixed(extra, extra_pages * pageSize, !pressure);
        b.touchPages(extra, extra_pages * pageSize);
        if (pressure ? r % 4 == 3 : r % 2 == 1)
            b.munmap(extra, extra_pages * pageSize);
    }
    b.exit();
    sys.run(b.build(), "fuzz");
}

Golden
goldenRun(const FuzzOptions &fz, const runner::Options &opts,
          const Bucket &bucket, unsigned cores)
{
    Golden g;
    KindleConfig cfg = makeConfig(fz, bucket, cores);
    runner::applyMachineOverrides(opts, cfg);
    KindleSystem sys(cfg);
    // Every committed checkpoint records the live process states: the
    // exact (rip, mappedBytes) source checkpointProcess() serializes.
    sys.injector().setObserver(
        [&sys, &g](const std::string &name, std::uint64_t) {
            if (name != "ckpt.after_commit")
                return;
            for (const auto &proc : sys.kernel().processes()) {
                if (proc->state == os::ProcState::zombie)
                    continue;
                g.committed.insert({sys.kernel().contextOf(*proc).rip,
                                    proc->aspace.mappedBytes()});
            }
        });
    runWorkload(sys, fz.pressure, cores);
    g.hits = sys.injector().allHits();
    g.durableWrites = sys.injector().durableWrites();
    return g;
}

/** The golden run must exercise what its bucket claims to cover, or
 *  the grid silently stops reaching the sites it is meant to. */
void
checkTripwires(const Golden &g, const FuzzOptions &fz,
               const Bucket &bucket)
{
    const auto hit = [&](const char *site) {
        return g.hits.count(site) != 0;
    };
    kindle_assert(!g.committed.empty(),
                  "{}: golden run took no checkpoints — workload or "
                  "interval mistuned", bucket.name);
    if (fz.pressure) {
        kindle_assert(hit("reclaim.pre_demote"),
                      "{}: golden run never demoted a page — pressure "
                      "plan mistuned", bucket.name);
        kindle_assert(hit("oom.pre_kill"),
                      "{}: golden run never OOM-killed — pressure plan "
                      "mistuned", bucket.name);
    }
    if (!bucket.spec)
        return;
    if (bucket.spec->expectOffline) {
        kindle_assert(hit("core.pre_offline"),
                      "{}: golden run never offlined core {} — fault "
                      "trigger mistuned", bucket.name,
                      bucket.spec->fault.cpu);
    } else {
        kindle_assert(!hit("core.pre_offline"),
                      "{}: stall escalated to an offline — retry "
                      "budget or stall length mistuned", bucket.name);
    }
    if (bucket.spec->expectRetry) {
        kindle_assert(hit("ipi.pre_retry"),
                      "{}: golden run never retried an IPI — the "
                      "ack-timeout path is not being exercised",
                      bucket.name);
    }
}

/** One crash point of a sweep. */
struct Point
{
    std::string label;
    fault::FaultPlan plan;
};

/**
 * Crash points: a site × occurrence grid first (every site the golden
 * run hit, occurrence levels round-robin so scarce sites are fully
 * covered before frequent ones repeat), then seeded-random
 * Nth-durable-write points up to @p total.  Deterministic in
 * (@p g, @p total, @p seed): a point's plan is seeded by its index, so
 * it is identical whether it runs inside the full sweep or alone
 * under --filter.
 */
std::vector<Point>
makePoints(const Golden &g, std::uint64_t total, std::uint64_t seed)
{
    std::vector<Point> pts;
    const std::uint64_t grid_target = total * 3 / 5;
    for (std::uint64_t occ = 1; pts.size() < grid_target; ++occ) {
        bool any = false;
        for (const auto &[site, hits] : g.hits) {
            if (hits < occ)
                continue;
            any = true;
            Point p;
            p.label = site + "#" + std::to_string(occ);
            p.plan.site = site;
            p.plan.occurrence = occ;
            p.plan.seed = rand::deriveSeed(seed, pts.size());
            pts.push_back(std::move(p));
            if (pts.size() >= grid_target)
                break;
        }
        if (!any)
            break;
    }
    Random rng(seed);
    while (pts.size() < total) {
        Point p;
        p.plan.atNthDurableWrite = 1 + rng.uniform(g.durableWrites);
        p.plan.seed = rand::deriveSeed(seed, pts.size());
        p.label = "durable_write#" +
                  std::to_string(p.plan.atNthDurableWrite);
        pts.push_back(std::move(p));
    }
    return pts;
}

/**
 * Write the flight recorder for a failed point: to the path the
 * --flight-out routing configured, or FLIGHT_fuzz.<point>.json in the
 * working directory — a divergence must always leave its timeline.
 */
void
dumpDivergence(KindleSystem &sys, const std::string &point_name,
               const char *reason)
{
    std::string path = sys.traceSink().params().flightDumpPath;
    if (path.empty()) {
        std::string safe = point_name;
        for (char &c : safe) {
            if (c == '/')
                c = '.';
        }
        path = "FLIGHT_fuzz." + safe + ".json";
    }
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write flight dump to %s\n",
                     path.c_str());
        return;
    }
    sys.dumpFlightRecorder(out, reason);
    std::printf("flight recorder: %s\n", path.c_str());
}

/** The (pid, rip, mappedBytes) of every restored process. */
RecoveredSet
recoveredSet(KindleSystem &sys)
{
    RecoveredSet set;
    for (const auto &proc : sys.kernel().processes()) {
        if (proc->restored) {
            set.insert({proc->pid, proc->context.rip,
                        proc->aspace.mappedBytes()});
        }
    }
    return set;
}

runner::Scenario
makeScenario(const FuzzOptions &fz, const Bucket &bucket,
             unsigned cores, const Point &point, const Golden &golden)
{
    runner::Scenario sc;
    sc.name = bucket.name + "/" + point.label;
    sc.axes = {{"scheme", persist::ptSchemeName(bucket.scheme)}};
    if (bucket.spec)
        sc.axes.push_back({"spec", bucket.spec->name});
    sc.axes.push_back({"site", point.plan.site.empty()
                                   ? "durable_write"
                                   : point.plan.site});
    sc.axes.push_back({"trigger", point.label});
    sc.config = makeConfig(fz, bucket, cores);
    const auto media = sc.config.fault ? sc.config.fault->media
                                       : fault::MediaFaultPlan{};
    sc.config.fault = point.plan;
    sc.config.fault->media = media;
    sc.drive = [oracle = &golden.committed, name = sc.name,
                pressure = fz.pressure, force = fz.forceDivergence,
                cores](KindleSystem &sys,
                       statistics::StatSnapshot &extra) -> Tick {
        const Tick t0 = sys.now();
        bool fired = false;
        try {
            runWorkload(sys, pressure, cores);
        } catch (const fault::PowerLoss &) {
            fired = true;
        }
        // Pull the plug — mid-protocol when the trigger fired, at
        // workload completion otherwise — and reboot over the wreck.
        sys.crash();
        const persist::RecoveryReport report = sys.reboot();

        // Audit 1: every recovered process resumes from a state the
        // golden run committed.
        const RecoveredSet first = recoveredSet(sys);
        std::uint64_t divergences = force ? 1 : 0;
        for (const auto &[pid, rip, mapped] : first) {
            (void)pid;
            if (!oracle->count({rip, mapped}))
                ++divergences;
        }
        if (divergences > 0)
            dumpDivergence(sys, name, "oracle-divergence");

        // Audit 2: recovery idempotence.  Crash the freshly recovered
        // machine before it executes anything and recover again: the
        // second pass must land on exactly the same process states.
        sys.crash();
        const persist::RecoveryReport report2 = sys.reboot();
        const bool idempotent = first == recoveredSet(sys);
        if (!idempotent)
            dumpDivergence(sys, name, "recovery-not-idempotent");

        // Audit 3: the survivor still checkpoints.
        bool post_ok = true;
        try {
            sys.persistence()->checkpointNow();
        } catch (const std::exception &) {
            post_ok = false;
        }

        const bool failed = divergences > 0 || !idempotent || !post_ok;
        const bool clean = !failed && report.clean();
        extra.set("fuzz.fired", fired ? 1 : 0);
        extra.set("fuzz.recovered", static_cast<double>(first.size()));
        extra.set("fuzz.quarantined",
                  static_cast<double>(report.processesQuarantined));
        extra.set("fuzz.recoveryErrors",
                  static_cast<double>(report.errors.size()));
        extra.set("fuzz.tornPtStoresRolledBack",
                  static_cast<double>(report.tornPtStoresRolledBack));
        extra.set("fuzz.oracleDivergences",
                  static_cast<double>(divergences));
        extra.set("fuzz.idempotenceBreaks", idempotent ? 0 : 1);
        extra.set("fuzz.rerecovered",
                  static_cast<double>(report2.processesRecovered));
        const auto hits = sys.injector().allHits();
        for (const auto &[stat, site] :
             {std::pair{"fuzz.demoteSiteHits", "reclaim.pre_demote"},
              std::pair{"fuzz.oomSiteHits", "oom.pre_kill"},
              std::pair{"fuzz.truncateSiteHits", "redo.pre_truncate"},
              std::pair{"fuzz.offlineSiteHits", "core.pre_offline"},
              std::pair{"fuzz.retrySiteHits", "ipi.pre_retry"}}) {
            const auto it = hits.find(site);
            extra.set(stat, it == hits.end()
                                ? 0.0
                                : static_cast<double>(it->second));
        }
        extra.set("fuzz.clean", clean ? 1 : 0);
        extra.set("fuzz.salvaged", (!clean && !failed) ? 1 : 0);
        extra.set("fuzz.failed", failed ? 1 : 0);
        return sys.now() - t0;
    };
    return sc;
}

/** "--flag V": the value of a driver flag; fatal when missing. */
const char *
flagValue(int &i, int argc, char **argv)
{
    if (i + 1 >= argc)
        kindle_fatal("{} needs a value", argv[i]);
    return argv[++i];
}

/**
 * Split driver flags from the common runner ones.  The runner parser
 * is fatal on unknown flags, so everything it must not see is
 * consumed here and the remainder handed down via @p pass_argv.
 */
FuzzOptions
parseFuzzOptions(int argc, char **argv, std::vector<char *> &pass_argv)
{
    FuzzOptions fz;
    pass_argv.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--points") == 0) {
            fz.points = std::strtoull(flagValue(i, argc, argv),
                                      nullptr, 10);
            if (fz.points == 0)
                kindle_fatal("--points must be positive");
        } else if (std::strcmp(arg, "--seed") == 0) {
            fz.seed = std::strtoull(flagValue(i, argc, argv), nullptr,
                                    10);
        } else if (std::strcmp(arg, "--faults") == 0) {
            fz.faults = flagValue(i, argc, argv);
            for (const auto &plane : split(fz.faults, ',')) {
                if (plane == "media")
                    fz.media = true;
                else if (plane == "pressure")
                    fz.pressure = true;
                else if (plane == "core")
                    fz.core = true;
                else
                    kindle_fatal("--faults: unknown plane '{}' (want "
                                 "media, pressure, core)", plane);
            }
        } else if (std::strcmp(arg, "--filter") == 0) {
            fz.filter = flagValue(i, argc, argv);
        } else if (std::strcmp(arg, "--force-divergence") == 0) {
            fz.forceDivergence = true;
        } else {
            pass_argv.push_back(argv[i]);
        }
    }
    return fz;
}

/** The exact command line that re-runs one point alone. */
std::string
reproCommand(const char *argv0, const FuzzOptions &fz, unsigned cores,
             const std::string &point_name)
{
    std::string cmd = argv0;
    cmd += " --points " + std::to_string(fz.points);
    cmd += " --seed " + std::to_string(fz.seed);
    if (cores > 1)
        cmd += " --cores " + std::to_string(cores);
    if (!fz.faults.empty())
        cmd += " --faults " + fz.faults;
    if (fz.forceDivergence)
        cmd += " --force-divergence";
    cmd += " --filter '" + point_name + "' --jobs 1";
    return cmd;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<char *> pass_argv;
    const FuzzOptions fz = parseFuzzOptions(argc, argv, pass_argv);
    const auto opts = runner::parseOptions(
        static_cast<int>(pass_argv.size()), pass_argv.data());

    unsigned cores = opts.cores;
    if (fz.core) {
        if (cores == 1)
            cores = 4;
        if (cores < 3) {
            kindle_fatal("--faults core needs --cores >= 3 (the fault "
                         "specs target cores 1 and 2)");
        }
    }
    const char *variant = fz.pressure
                              ? (fz.media ? "pressure+media" : "pressure")
                              : (fz.media ? "media" : "clean");
    printHeader("Crash-point fuzz",
                std::to_string(fz.points) + " points/scheme, seed " +
                    std::to_string(fz.seed) + ", cores " +
                    std::to_string(cores) + ", faults " +
                    (fz.faults.empty() ? "none" : fz.faults));

    // A bucket per scheme, crossed with the core specs when that plane
    // is set: each spec sweeps its share of the points on its own seed
    // lane.  The single no-core bucket sweeps on the seed itself.
    const auto specs = coreSpecs();
    std::vector<Bucket> buckets;
    for (const auto scheme : {persist::PtScheme::rebuild,
                              persist::PtScheme::persistent}) {
        const std::string scheme_name = persist::ptSchemeName(scheme);
        if (!fz.core) {
            buckets.push_back(
                {scheme, nullptr, scheme_name, fz.points, fz.seed});
            continue;
        }
        const std::uint64_t share =
            (fz.points + specs.size() - 1) / specs.size();
        for (std::size_t k = 0; k < specs.size(); ++k) {
            buckets.push_back({scheme, &specs[k],
                               scheme_name + "/" + variant + "/" +
                                   specs[k].name,
                               share, rand::deriveSeed(fz.seed, k)});
        }
    }

    runner::SweepRunner pool(opts);
    runner::BenchReport report("fuzz", pool.jobs());
    report.omitWallClock();
    report.keepStatPrefixes(
        {"fuzz.", "fault.", "recovery.", "persist.checkpoints",
         "persist.earlyCheckpoints", "kernel.reclaim.",
         "kernel.oomKills", "hybridMem.nvmMedia.", "scrubber.",
         "kernel.badFrames.", "kernel.ipiRetries", "kernel.ipiTimeouts",
         "kernel.coresOfflined", "kernel.affinityBroken",
         "kernel.coreLossKills"});

    // Golden runs first, then every bucket's points in one sweep, so
    // the pool never idles at a bucket boundary.  Points are generated
    // *before* filtering so a point's plan (seeded by its index) is
    // identical whether it runs inside the full sweep or alone under
    // --filter.
    std::vector<Golden> goldens(buckets.size());
    std::vector<runner::Scenario> scenarios;
    std::vector<std::size_t> bucket_end;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        goldens[b] = goldenRun(fz, opts, buckets[b], cores);
        std::printf("golden[%s]: %llu durable writes, sites:",
                    buckets[b].name.c_str(),
                    static_cast<unsigned long long>(
                        goldens[b].durableWrites));
        for (const auto &[site, hits] : goldens[b].hits) {
            std::printf(" %s=%llu", site.c_str(),
                        static_cast<unsigned long long>(hits));
        }
        std::printf("\n");
        std::fflush(stdout);
        checkTripwires(goldens[b], fz, buckets[b]);
        for (const auto &p : makePoints(goldens[b], buckets[b].points,
                                        buckets[b].seed)) {
            auto sc = makeScenario(fz, buckets[b], cores, p, goldens[b]);
            if (sc.name.find(fz.filter) != std::string::npos)
                scenarios.push_back(std::move(sc));
        }
        bucket_end.push_back(scenarios.size());
    }
    const auto results = pool.run(scenarios);
    requireAllOk(results);
    report.add(results);

    TablePrinter table({"Bucket", "Points", "Fired", "Clean",
                        "Salvaged", "Failed", "IdemBreaks",
                        "Torn PT undone"});
    bool any_failed = false;
    for (const auto &r : results) {
        if (r.stats.get("fuzz.failed") > 0) {
            any_failed = true;
            std::printf("FAILED %s\n  repro: %s\n", r.name.c_str(),
                        reproCommand(argv[0], fz, cores, r.name).c_str());
        }
    }
    std::size_t begin = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        const auto total = [&](const char *stat) {
            std::uint64_t sum = 0;
            for (std::size_t i = begin; i < bucket_end[b]; ++i) {
                sum += static_cast<std::uint64_t>(
                    results[i].stats.get(stat));
            }
            return std::to_string(sum);
        };
        table.addRow({buckets[b].name,
                      std::to_string(bucket_end[b] - begin),
                      total("fuzz.fired"), total("fuzz.clean"),
                      total("fuzz.salvaged"), total("fuzz.failed"),
                      total("fuzz.idempotenceBreaks"),
                      total("fuzz.tornPtStoresRolledBack")});
        begin = bucket_end[b];
    }
    table.print();

    printJsonFooter(report.writeJsonFile(), pool.jobs());
    if (any_failed)
        kindle_fatal("fuzz found divergent or non-idempotent "
                     "recoveries");
    return 0;
}
