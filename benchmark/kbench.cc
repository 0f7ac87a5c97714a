/**
 * @file
 * kbench: one measured unit of a repo-benchmark workload.
 *
 *   kbench --workload NAME --seed N [--timed] [--trace-out FILE]
 *
 * Runs a fixed amount of work (the sizes below), checks the outputs,
 * and prints one JSON object: host set-up and run time, simulated
 * results, the per-layer statistics of the modelled machine, an FNV-1a
 * digest of the deterministic stat snapshot, and — with --timed — the
 * host time of every boundary the benchmark can see (probe.hh).
 * benchmark/run.py runs this once per repetition in a fresh process
 * and aggregates medians.
 *
 * Workloads (every one derives its own seed from --seed):
 *
 *   replay_ssp     Ycsb_mem trace, heaps/stacks in NVM, one FASE, SSP
 *                  consistency + consolidation at 1 ms (Figure 5).
 *   replay_hscc    G500_sssp trace under HSCC, fetch threshold 5, OS
 *                  costs charged, 300 compute cycles per record
 *                  (Figure 6).
 *   fleet          runner::makeFleetConfig: 1024 tenants + 512 churn
 *                  respawns on 4 cores, Zipf 0.99 Poisson tenants,
 *                  pressure + OOM armed, 2 ms checkpoints.
 *   crash_recover  micro::churnBench under both page-table schemes
 *                  with 10 ms checkpoints: one golden run per scheme,
 *                  then tick-triggered crash points spread over it,
 *                  each crash() -> reboot() -> audit.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/json.hh"
#include "base/rand.hh"
#include "base/random.hh"
#include "fleet/fleet.hh"
#include "kindle/kindle.hh"
#include "kindle/microbench.hh"
#include "prep/replay.hh"
#include "prep/workloads.hh"
#include "probe.hh"
#include "runner/fleet_scenario.hh"

namespace
{

using namespace kindle;
using namespace kbench;

/** @name Workload sizes: one unit of each takes 2-3 s on the
 *  reference box (see README.md).  Changing them changes the
 *  benchmark, so the baseline must be measured again. */
/// @{
constexpr std::uint64_t sspRecords = 3800000;
constexpr std::uint64_t hsccRecords = 3000000;
constexpr unsigned fleetTenants = 1024;
constexpr unsigned fleetChurn = 512;
constexpr unsigned fleetRequests = 25;
constexpr unsigned fleetCores = 4;
constexpr std::uint64_t crashArena = 64 * oneMiB;
constexpr std::uint64_t crashChurn = 16 * oneMiB;
constexpr unsigned crashPointsPerScheme = 10;
/// @}

/** Substream tags under --seed, one per workload. */
enum : std::uint64_t
{
    tagReplaySsp = 1,
    tagReplayHscc = 2,
    tagFleet = 3,
    tagCrash = 4,
};

double
seconds(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         since)
        .count();
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/**
 * Stat snapshots folded over every machine of a unit: summed values
 * for the per-layer metrics and a running FNV-1a digest over the
 * deterministic entries (prof.* are host-time derived and skipped).
 */
class StatTotals
{
  public:
    void
    add(const KindleSystem &sys)
    {
        const statistics::StatSnapshot snap = sys.snapshotStats();
        for (const auto &[path, value] : snap.entries()) {
            if (path.rfind("prof.", 0) == 0)
                continue;
            sum[path] += value;
            mix(path.data(), path.size());
            std::uint64_t bits = 0;
            std::memcpy(&bits, &value, sizeof(bits));
            mix(&bits, sizeof(bits));
        }
    }

    /** Every summed entry whose path starts with @p prefix and ends
     *  with @p suffix. */
    double
    total(const std::string &prefix, const std::string &suffix) const
    {
        double v = 0;
        for (auto it = sum.lower_bound(prefix);
             it != sum.end() && it->first.rfind(prefix, 0) == 0; ++it) {
            const std::string &p = it->first;
            if (p.size() >= suffix.size() &&
                p.compare(p.size() - suffix.size(), suffix.size(),
                          suffix) == 0) {
                v += it->second;
            }
        }
        return v;
    }

    double
    get(const std::string &path) const
    {
        const auto it = sum.find(path);
        return it == sum.end() ? 0.0 : it->second;
    }

    std::string
    digestHex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(digest));
        return buf;
    }

  private:
    void
    mix(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            digest ^= p[i];
            digest *= 0x100000001b3ull;
        }
    }

    std::map<std::string, double> sum;
    std::uint64_t digest = 0xcbf29ce484222325ull;
};

/** What one unit reports besides the tracer's host metrics. */
struct Unit
{
    double setupS = 0;
    Tick simTicks = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::pair<std::string, bool>> checks;
    StatTotals stats;
    /** Path prefix of the NVM controller's stats ("hybridMem.XCtrl."). */
    std::string nvmPrefix;
    std::vector<std::pair<std::string, double>> sizes;
    std::vector<std::pair<std::string, double>> extra;

    void
    check(const std::string &name, bool ok)
    {
        checks.emplace_back(name, ok);
    }

    void
    noteNvm(KindleSystem &sys)
    {
        nvmPrefix = sys.memory().stats().name() + "." +
                    sys.memory().nvmCtrl().stats().name() + ".";
    }
};

/** Exact quantile of @p v (sorts it). */
double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ---------------------------------------------------------------------
// replay_ssp / replay_hscc

Unit
runReplay(Tracer &tr, bool ssp, std::uint64_t seed)
{
    Unit u;
    KindleConfig cfg;
    cfg.memory.dramBytes = 3 * oneGiB;
    cfg.memory.nvmBytes = 2 * oneGiB;
    prep::WorkloadParams wp;
    wp.scaleDown = 8;  // keep trace footprints inside the NVM pool
    prep::ReplayConfig rc;
    rc.heapsInNvm = true;
    rc.stacksInNvm = true;
    prep::Benchmark bench;
    if (ssp) {
        ssp::SspParams sp;
        sp.consistencyInterval = oneMs;
        sp.consolidationInterval = oneMs;
        cfg.ssp = sp;
        bench = prep::Benchmark::ycsbMem;
        wp.ops = sspRecords;
        wp.seed = rand::deriveSeed(seed, tagReplaySsp);
        rc.wrapInFase = true;
    } else {
        hscc::HsccParams hp;
        hp.fetchThreshold = 5;
        hp.chargeOsTime = true;
        cfg.hscc = hp;
        bench = prep::Benchmark::g500Sssp;
        wp.ops = hsccRecords;
        wp.seed = rand::deriveSeed(seed, tagReplayHscc);
        // Figure 6's pacing: ~100 ns per record, so the run spans
        // many 31.25 ms migration intervals.
        rc.computePerRecord = 300;
    }
    u.sizes = {{"records", static_cast<double>(wp.ops)},
               {"scale_down", wp.scaleDown}};

    const auto t_setup = std::chrono::steady_clock::now();
    auto sys = tr.span(Span::setup, [&] {
        return std::make_unique<KindleSystem>(cfg);
    });
    tr.bind(*sys);
    auto program = tr.span(Span::factory, [&] {
        return std::make_unique<ProbeStream>(
            tr, std::make_unique<prep::OwningReplayStream>(
                    prep::makeWorkload(bench, wp), rc));
    });
    u.setupS = seconds(t_setup);
    tr.startRun();

    const Tick t0 = sys->now();
    tr.span(Span::spawn, [&] {
        sys->kernel().spawn(std::move(program),
                            prep::benchmarkName(bench));
    });
    tr.run([&] { sys->kernel().run(); });
    u.simTicks = sys->now() - t0;
    tr.finish();

    u.stats.add(*sys);
    u.noteNvm(*sys);

    // Every op the generator emitted must have retired, by kind.
    using Kind = cpu::Op::Kind;
    const std::uint64_t syscalls =
        tr.emitted(Kind::mmap) + tr.emitted(Kind::munmap) +
        tr.emitted(Kind::mremap) + tr.emitted(Kind::mprotect);
    std::uint64_t all = 0;
    for (auto k : {Kind::read, Kind::write, Kind::compute, Kind::mmap,
                   Kind::munmap, Kind::mremap, Kind::mprotect,
                   Kind::faseStart, Kind::faseEnd, Kind::exit})
        all += tr.emitted(k);
    const auto diff = [](double a, double b) {
        return static_cast<std::uint64_t>(std::fabs(a - b));
    };
    const std::uint64_t d_mem =
        diff(tr.memOpsEmitted(), u.stats.get("core.memOps"));
    const std::uint64_t d_compute =
        diff(tr.emitted(Kind::compute), u.stats.get("core.computeOps"));
    const std::uint64_t d_sys =
        diff(syscalls, u.stats.get("kernel.syscalls"));
    const std::uint64_t d_all =
        diff(all, u.stats.get("kernel.opsExecuted"));
    const bool exited = tr.exitsEmitted() == 1 &&
                        u.stats.get("core.illegalAccesses") == 0;
    u.check("mem_ops_retired", d_mem == 0);
    u.check("compute_ops_retired", d_compute == 0);
    u.check("syscalls_retired", d_sys == 0);
    u.check("all_ops_retired", d_all == 0);
    u.check("exited_normally", exited);
    u.check("all_records_replayed", tr.memOpsEmitted() == wp.ops);
    u.attempted = all;
    u.failed = d_mem + d_compute + d_sys + d_all + (exited ? 0 : 1);
    return u;
}

// ---------------------------------------------------------------------
// fleet

Unit
runFleet(Tracer &tr, std::uint64_t seed)
{
    Unit u;
    runner::FleetOptions fo;
    fo.params.tenants = fleetTenants;
    fo.params.churnSpawns = fleetChurn;
    fo.params.requestsPerTenant = fleetRequests;
    fo.params.seed = rand::deriveSeed(seed, tagFleet);
    const fleet::FleetParams &params = fo.params;
    u.sizes = {{"tenants", fleetTenants},
               {"churn", fleetChurn},
               {"requests_per_tenant", fleetRequests},
               {"cores", fleetCores}};

    RequestLog log;
    log.requestsPerTenant = params.requestsPerTenant;
    fleet::FleetCounters counters;
    unsigned spawned = 0;

    const auto t_setup = std::chrono::steady_clock::now();
    auto sys = tr.span(Span::setup, [&] {
        return std::make_unique<KindleSystem>(
            runner::makeFleetConfig(fo, fleetCores));
    });
    tr.bind(*sys);
    u.setupS = seconds(t_setup);
    tr.startRun();

    os::Kernel &kernel = sys->kernel();
    const auto spawnOne = [&] {
        auto program = tr.span(Span::factory, [&] {
            return std::make_unique<ProbeStream>(
                tr, fleet::makeTenant(params, spawned, &counters), &log);
        });
        tr.span(Span::spawn, [&] {
            kernel.spawn(std::move(program), fleet::tenantName(spawned));
        });
        ++spawned;
    };

    // The churn loop of runner::makeFleetScenario: run in half-ms
    // slices, backfilling exited (or OOM-killed) tenants until the
    // churn budget drains and the fleet empties.
    const Tick t0 = sys->now();
    for (unsigned i = 0; i < params.tenants; ++i)
        spawnOne();
    unsigned churn_left = params.churnSpawns;
    const Tick slice = oneMs / 2;
    for (;;) {
        const unsigned live = kernel.liveProcessCount();
        if (live < params.tenants && churn_left > 0) {
            const unsigned n =
                std::min(params.tenants - live, churn_left);
            for (unsigned i = 0; i < n; ++i)
                spawnOne();
            churn_left -= n;
        } else if (live == 0) {
            break;
        }
        tr.run([&] { kernel.runUntil(sys->now() + slice); });
    }
    u.simTicks = sys->now() - t0;
    tr.finish();

    u.stats.add(*sys);
    u.noteNvm(*sys);
    sys.reset();  // destroys the last probes: lost requests are final

    const std::uint64_t attempted =
        std::uint64_t(spawned) * params.requestsPerTenant;
    const std::uint64_t accounted = log.served + log.lost;
    const std::uint64_t ended = tr.exitsEmitted() + log.killedTenants;
    u.check("served_plus_lost_is_attempted", accounted == attempted);
    u.check("every_tenant_exited_or_killed", ended == spawned);
    u.check("served_within_handed_out", log.served <= counters.requests);
    u.check("churn_budget_spent", churn_left == 0);
    u.attempted = attempted;
    u.failed = (accounted > attempted ? accounted - attempted
                                      : attempted - accounted) +
               (ended > spawned ? ended - spawned : spawned - ended);

    const double us = 1e6;  // ticks (ps) per us
    u.extra = {
        {"requests", static_cast<double>(log.served)},
        {"req_lost_frac", ratio(static_cast<double>(log.lost),
                                static_cast<double>(attempted))},
        {"req_p50_sim_us", quantile(log.latency, 0.50) / us},
        {"req_p99_sim_us", quantile(log.latency, 0.99) / us},
        {"fleet.req_p999_sim_us", quantile(log.latency, 0.999) / us},
        {"fleet.sched_lag_p99_sim_us", quantile(log.schedLag, 0.99) / us},
        {"fleet.oom_killed_tenants",
         static_cast<double>(log.killedTenants)},
    };
    return u;
}

// ---------------------------------------------------------------------
// crash_recover

/** Committed (rip, mapped bytes) states a recovered process may
 *  legally resume from. */
using Oracle = std::set<std::pair<std::uint64_t, std::uint64_t>>;

KindleConfig
crashConfig(persist::PtScheme scheme)
{
    KindleConfig cfg;
    cfg.memory.dramBytes = 3 * oneGiB;
    cfg.memory.nvmBytes = 2 * oneGiB;
    cfg.persistence = persist::PersistParams{scheme, 10 * oneMs};
    return cfg;
}

std::unique_ptr<ProbeStream>
crashProgram(Tracer &tr)
{
    return tr.span(Span::factory, [&] {
        return std::make_unique<ProbeStream>(
            tr, micro::churnBench(crashArena, crashChurn, 2, 3, true));
    });
}

Unit
runCrashRecover(Tracer &tr, std::uint64_t seed)
{
    Unit u;
    const std::uint64_t wseed = rand::deriveSeed(seed, tagCrash);
    u.sizes = {{"arena_bytes", static_cast<double>(crashArena)},
               {"churn_bytes", static_cast<double>(crashChurn)},
               {"points_per_scheme", crashPointsPerScheme},
               {"schemes", 2}};

    std::uint64_t points = 0, failed_points = 0, fired = 0;
    std::uint64_t restored = 0, diverged = 0;
    double recover_ticks = 0;
    bool first = true;
    const auto t_setup = std::chrono::steady_clock::now();

    for (const auto scheme :
         {persist::PtScheme::rebuild, persist::PtScheme::persistent}) {
        const std::string scheme_name = persist::ptSchemeName(scheme);

        // Golden run: learn the run length and the committed states.
        Oracle oracle;
        Tick run_start = 0, run_ticks = 0;
        tr.group("golden/" + scheme_name, [&] {
            auto sys = tr.span(Span::setup, [&] {
                return std::make_unique<KindleSystem>(
                    crashConfig(scheme));
            });
            tr.bind(*sys);
            KindleSystem &s = *sys;
            s.injector().setObserver(
                [&s, &oracle](const std::string &site, std::uint64_t) {
                    if (site != "ckpt.after_commit")
                        return;
                    for (const auto &proc : s.kernel().processes()) {
                        if (proc->state == os::ProcState::zombie)
                            continue;
                        oracle.insert({s.kernel().contextOf(*proc).rip,
                                       proc->aspace.mappedBytes()});
                    }
                });
            auto program = crashProgram(tr);
            if (first) {
                u.setupS = seconds(t_setup);
                tr.startRun();
                first = false;
            }
            run_start = s.now();
            tr.span(Span::spawn, [&] {
                s.kernel().spawn(std::move(program), "golden");
            });
            tr.run([&] { s.kernel().run(); });
            run_ticks = s.now() - run_start;
            u.simTicks += s.now();
            tr.span(Span::harness, [&] {
                u.stats.add(s);
                u.noteNvm(s);
            });
            tr.unbind();
            tr.span(Span::teardown, [&] { sys.reset(); });
        });
        u.check("golden_" + scheme_name + "_committed", !oracle.empty());

        // Crash points: one per equal stratum of the golden run, at a
        // seeded offset inside it.
        Random jitter(rand::deriveSeed(wseed, 100 + unsigned(scheme)));
        for (unsigned k = 0; k < crashPointsPerScheme; ++k) {
            const double at =
                (k + jitter.uniformReal()) / crashPointsPerScheme;
            KindleConfig cfg = crashConfig(scheme);
            cfg.fault = fault::FaultPlan{};
            cfg.fault->atTick =
                run_start + 1 +
                static_cast<Tick>(at * static_cast<double>(run_ticks));
            cfg.fault->seed = rand::deriveSeed(wseed, points);
            ++points;

            tr.group(scheme_name + "/point" + std::to_string(k), [&] {
                bool ok = true;
                auto sys = tr.span(Span::setup, [&] {
                    return std::make_unique<KindleSystem>(cfg);
                });
                tr.bind(*sys);
                auto program = crashProgram(tr);
                tr.span(Span::spawn, [&] {
                    sys->kernel().spawn(std::move(program), "point");
                });
                try {
                    tr.run([&] { sys->kernel().run(); });
                } catch (const fault::PowerLoss &) {
                    ++fired;
                }
                tr.unbind();
                tr.span(Span::crash, [&] { sys->crash(); });
                try {
                    const persist::RecoveryReport report =
                        tr.span(Span::reboot, [&] { return sys->reboot(); });
                    recover_ticks +=
                        static_cast<double>(report.recoveryTicks);
                    tr.bind(*sys);
                    tr.span(Span::harness, [&] {
                        for (const auto &proc :
                             sys->kernel().processes()) {
                            if (!proc->restored)
                                continue;
                            ++restored;
                            if (!oracle.count(
                                    {proc->context.rip,
                                     proc->aspace.mappedBytes()})) {
                                ++diverged;
                                ok = false;
                            }
                        }
                    });
                    // The recovered machine must still checkpoint.
                    tr.span(Span::checkpoint, [&] {
                        sys->persistence()->checkpointNow();
                    });
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "kbench: %s point %u: %s\n",
                                 scheme_name.c_str(), k, e.what());
                    ok = false;
                }
                u.simTicks += sys->now();
                if (!sys->crashed())
                    tr.span(Span::harness, [&] { u.stats.add(*sys); });
                tr.unbind();
                tr.span(Span::teardown, [&] { sys.reset(); });
                if (!ok)
                    ++failed_points;
            });
        }
    }
    tr.finish();

    u.check("every_point_rebooted_into_oracle", failed_points == 0);
    u.check("some_points_fired", fired > 0);
    u.check("some_processes_restored", restored > 0);
    u.attempted = points;
    u.failed = failed_points;
    u.extra = {
        {"crash_points", static_cast<double>(points)},
        {"crash_points_fired", static_cast<double>(fired)},
        {"processes_restored", static_cast<double>(restored)},
        {"oracle_divergences", static_cast<double>(diverged)},
        {"recover_sim_us",
         ratio(recover_ticks, static_cast<double>(points)) / 1e6},
    };
    return u;
}

// ---------------------------------------------------------------------
// Output

/** The modelled machine's per-layer statistics (simulated, exact). */
void
writeSimLayers(json::Writer &w, const Unit &u)
{
    const StatTotals &s = u.stats;
    const double sim = static_cast<double>(u.simTicks);
    const double l1_hits = s.total("cacheHierarchy.", ".l1.hits");
    const double l1_misses = s.total("cacheHierarchy.", ".l1.misses");
    const double llc_hits = s.get("cacheHierarchy.llc.hits");
    const double llc_misses = s.get("cacheHierarchy.llc.misses");
    const double tlb_misses = s.get("core.tlb.misses");
    const double tlb_lookups = s.get("core.tlb.l1Hits") +
                               s.get("core.tlb.l2Hits") + tlb_misses;
    const double demoted = s.get("kernel.reclaim.pagesDemoted");
    const double demote_stalls = s.get("kernel.reclaim.demoteStallsNoNvm");
    const double migrated = s.get("hscc.pagesMigrated");

    w.keyValue("cache.l1_hit_rate", ratio(l1_hits, l1_hits + l1_misses));
    w.keyValue("cache.llc_miss_rate",
               ratio(llc_misses, llc_hits + llc_misses));
    w.keyValue("cache.clwbs", s.get("cacheHierarchy.clwbs"));
    w.keyValue("cpu.tlb_miss_rate", ratio(tlb_misses, tlb_lookups));
    w.keyValue("cpu.walk_sim_ns",
               ratio(s.total("", "walkLatency::sum"),
                     s.total("", "walkLatency::count")) / 1000.0);
    w.keyValue("mem.nvm_reads", s.total(u.nvmPrefix, ".readReqs"));
    w.keyValue("mem.nvm_writes", s.total(u.nvmPrefix, ".writeReqs"));
    w.keyValue("mem.nvm_write_stall_share",
               ratio(s.get(u.nvmPrefix + "writeStallTicks"), sim));
    w.keyValue("os.page_faults", s.get("kernel.pageFaults"));
    w.keyValue("os.context_switches", s.get("kernel.contextSwitches"));
    w.keyValue("os.pages_demoted", demoted);
    w.keyValue("os.demote_stall_ratio",
               ratio(demote_stalls, demoted + demote_stalls));
    w.keyValue("os.oom_kills", s.get("kernel.oomKills"));
    w.keyValue("persist.checkpoints", s.get("persist.checkpoints"));
    w.keyValue("persist.ckpt_sim_share",
               ratio(s.get("persist.ckptTicks::sum"), sim));
    w.keyValue("persist.clean_skips", s.get("persist.cleanSkips"));
    w.keyValue("persist.redo_appends", s.get("persist.redoLog.appends"));
    w.keyValue("persist.pt_wrapped_stores",
               s.get("persist.ptConsistency.wrappedStores"));
    w.keyValue("ssp.commits", s.get("ssp.intervalCommits"));
    w.keyValue("ssp.lines_flushed", s.get("ssp.linesFlushed"));
    w.keyValue("ssp.commit_sim_share",
               ratio(s.get("ssp.commitTicks"), sim));
    w.keyValue("hscc.pages_migrated", migrated);
    w.keyValue("hscc.revert_ratio", ratio(s.get("hscc.reverts"), migrated));
    w.keyValue("hscc.selection_sim_share",
               ratio(s.get("hscc.selectionTicks"), sim));
    w.keyValue("hscc.copy_sim_share", ratio(s.get("hscc.copyTicks"), sim));
}

void
writeResult(std::ostream &os, const std::string &workload,
            std::uint64_t seed, const Tracer &tr, const Unit &u)
{
    const double wall_s = tr.wallNs() / 1e9;
    double run_s = 0;
    for (const std::uint64_t ns : tr.windows())
        run_s += static_cast<double>(ns) / 1e9;
    json::Writer w(os);
    w.beginObject();
    w.keyValue("workload", workload);
    w.keyValue("seed", seed);
    w.keyValue("timed", tr.timed());
    w.key("sizes");
    w.beginObject();
    for (const auto &[k, v] : u.sizes)
        w.keyValue(k, v);
    w.endObject();
    w.keyValue("attempted", u.attempted);
    w.keyValue("failed", u.failed);
    w.key("checks");
    w.beginObject();
    for (const auto &[k, ok] : u.checks)
        w.keyValue(k, ok);
    w.endObject();
    w.keyValue("digest", u.stats.digestHex());
    w.keyValue("setup_s", u.setupS);
    w.keyValue("run_s", run_s);
    w.keyValue("wall_s", wall_s);
    w.key("windows_ns");
    w.beginArray();
    for (const std::uint64_t ns : tr.windows())
        w.value(ns);
    w.endArray();

    w.key("metrics");
    w.beginObject();
    w.keyValue("mem_ops", tr.memOpsEmitted());
    w.keyValue("sim_ms", static_cast<double>(u.simTicks) / 1e9);
    for (const auto &[k, v] : u.extra)
        w.keyValue(k, v);
    writeSimLayers(w, u);
    w.endObject();

    if (tr.timed())
        tr.writeHostMetrics(w);
    w.endObject();
    os << '\n';
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "kbench: %s\n"
                 "usage: kbench --workload "
                 "replay_ssp|replay_hscc|fleet|crash_recover --seed N "
                 "[--timed] [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, trace_out;
    std::uint64_t seed = 1;
    bool timed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            workload = value();
        } else if (a == "--seed") {
            const std::string v = value();
            char *end = nullptr;
            seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage(("bad seed '" + v + "'").c_str());
        } else if (a == "--timed") {
            timed = true;
        } else if (a == "--trace-out") {
            trace_out = value();
        } else {
            usage(("unknown argument '" + a + "'").c_str());
        }
    }
    if (!trace_out.empty() && !timed)
        usage("--trace-out needs --timed");

    Tracer tr(timed);
    Unit u;
    if (workload == "replay_ssp")
        u = runReplay(tr, true, seed);
    else if (workload == "replay_hscc")
        u = runReplay(tr, false, seed);
    else if (workload == "fleet")
        u = runFleet(tr, seed);
    else if (workload == "crash_recover")
        u = runCrashRecover(tr, seed);
    else
        usage(("unknown workload '" + workload + "'").c_str());

    if (!trace_out.empty()) {
        std::ofstream out(trace_out);
        tr.writeChromeTrace(out);
        if (!out) {
            std::fprintf(stderr, "kbench: cannot write %s\n",
                         trace_out.c_str());
            return 1;
        }
    }
    writeResult(std::cout, workload, seed, tr, u);
    return 0;
}
