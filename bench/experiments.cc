#include "experiments.hh"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "base/logging.hh"
#include "bench_util.hh"
#include "kindle/microbench.hh"
#include "prep/replay.hh"
#include "prep/workloads.hh"
#include "runner/fleet_scenario.hh"

namespace kindle::bench
{

namespace
{

using runner::RunResult;
using runner::Scenario;
using Scenarios = std::vector<Scenario>;
using Row = std::vector<std::string>;
using persist::PtScheme;

/** Print one paper table: header, rows, then the closing @p note. */
void
printArtifact(const std::string &artifact, const std::string &desc,
              const Row &columns, const std::vector<Row> &rows,
              const std::string &note)
{
    printHeader(artifact, desc);
    printTable(columns, rows);
    std::printf("\n%s\n", note.c_str());
}

double
over(Tick a, Tick b)
{
    return static_cast<double>(a) / static_cast<double>(b);
}

std::uint64_t
stat(const RunResult &r, const char *path)
{
    return static_cast<std::uint64_t>(r.stats.get(path));
}

/** Checkpoint share of a run, from the persist stats. */
std::string
ckptShare(const RunResult &r)
{
    if (!r.ticks)
        return "-";
    const double ckpt = r.stats.getOr("persist.ckptTicks::sum", 0);
    return fixed(100.0 * ckpt / static_cast<double>(r.ticks), 1) + "%";
}

std::string
opsLabel(std::uint64_t ops)
{
    return "(--ops " + std::to_string(ops) + ")";
}

std::string
schemeName(PtScheme scheme)
{
    return scheme == PtScheme::persistent ? "persistent" : "rebuild";
}

std::string
intervalName(Tick t)
{
    if (t >= oneSec)
        return std::to_string(t / oneSec) + " sec";
    return std::to_string(t / oneMs) + " msec";
}

/** The three Table II traces, in the paper's order. */
const std::vector<prep::Benchmark> tableTwo = {
    prep::Benchmark::gapbsPr, prep::Benchmark::g500Sssp,
    prep::Benchmark::ycsbMem};

std::string
wl(prep::Benchmark bench)
{
    return prep::benchmarkName(bench);
}

// Scenario builders: a point shared by two rows comes from one builder,
// so one config path defines it.

/** A point on the paper's machine: 3 GiB DRAM + 2 GiB NVM. */
Scenario
paperMachine(std::string name, runner::Axes axes)
{
    Scenario sc;
    sc.name = std::move(name);
    sc.axes = std::move(axes);
    sc.config.memory.dramBytes = 3 * oneGiB;
    sc.config.memory.nvmBytes = 2 * oneGiB;
    return sc;
}

/** A scripted point named "<scheme>/<label>", checkpointed every
 *  @p interval under @p scheme (none: the no-persistence baseline). */
Scenario
microScenario(std::optional<PtScheme> scheme, Tick interval,
              const std::string &label, runner::Axes axes,
              std::function<std::unique_ptr<cpu::OpStream>()> program)
{
    const std::string name = scheme ? schemeName(*scheme) : "baseline";
    axes.insert(axes.begin(), {"scheme", name});
    Scenario sc = paperMachine(name + "/" + label, std::move(axes));
    if (scheme)
        sc.config.persistence = persist::PersistParams{*scheme, interval};
    sc.program = std::move(program);
    return sc;
}

/** Figure 4a: MAP_NVM alloc-and-touch of @p bytes, 10 ms checkpoints. */
Scenario
seqAllocScenario(PtScheme scheme, std::uint64_t bytes)
{
    return microScenario(
        scheme, 10 * oneMs, sizeToString(bytes),
        {{"alloc_bytes", std::to_string(bytes)}},
        [bytes] { return micro::seqAllocTouch(bytes, true); });
}

/** Tables III/IV: munmap+mmap @p churn bytes of @p arena twice, then
 *  @p access_rounds sweeps over the reallocated region. */
Scenario
churnScenario(PtScheme scheme, std::uint64_t arena, std::uint64_t churn,
              Tick interval, unsigned access_rounds)
{
    return microScenario(
        scheme, interval,
        sizeToString(churn) + "/" + intervalName(interval),
        {{"churn_bytes", std::to_string(churn)},
         {"interval", intervalName(interval)}},
        [arena, churn, access_rounds] {
            return micro::churnBench(arena, churn, 2, access_rounds, true);
        });
}

/** @p bench replayed over NVM heaps and stacks (scaled down 8x to fit
 *  the NVM pool). */
std::function<std::unique_ptr<cpu::OpStream>()>
replay(prep::Benchmark bench, std::uint64_t ops, prep::ReplayConfig rc)
{
    return [bench, ops, rc]() -> std::unique_ptr<cpu::OpStream> {
        prep::WorkloadParams wp;
        wp.ops = ops;
        wp.scaleDown = 8;
        return std::make_unique<prep::OwningReplayStream>(
            prep::makeWorkload(bench, wp), rc);
    };
}

/** Figure 5: @p bench inside a FASE under SSP; a zero @p consistency
 *  interval is the no-consistency baseline. */
Scenario
sspScenario(prep::Benchmark bench, std::uint64_t ops, Tick consistency,
            Tick consolidation)
{
    const std::string label =
        consistency ? std::to_string(consistency / oneMs) + "ms" : "none";
    Scenario sc = paperMachine(
        wl(bench) + "/" + (consistency ? label : "baseline"),
        {{"benchmark", wl(bench)}, {"interval", label}});
    if (consistency) {
        ssp::SspParams params;
        params.consistencyInterval = consistency;
        params.consolidationInterval = consolidation;
        sc.config.ssp = params;
    }
    prep::ReplayConfig rc;
    rc.wrapInFase = true;
    sc.program = replay(bench, ops, rc);
    return sc;
}

/** Figure 6: @p bench with HSCC's DRAM cache at @p threshold;
 *  @p charge_os adds the OS side of each migration. */
Scenario
hsccScenario(prep::Benchmark bench, std::uint64_t ops, unsigned threshold,
             bool charge_os)
{
    const char *mode = charge_os ? "hw+os" : "hw";
    Scenario sc = paperMachine(
        wl(bench) + "/Th-" + std::to_string(threshold) + "/" + mode,
        {{"benchmark", wl(bench)},
         {"threshold", std::to_string(threshold)},
         {"migration", mode}});
    sc.config.hscc = hscc::HsccParams{};
    sc.config.hscc->fetchThreshold = threshold;
    sc.config.hscc->chargeOsTime = charge_os;
    // Pace the replay at ~100 ns per record (the captured period
    // granularity) so the run spans many 31.25 ms migration intervals
    // like the original minutes-long executions.
    prep::ReplayConfig rc;
    rc.computePerRecord = 300;
    sc.program = replay(bench, ops, rc);
    return sc;
}

const std::vector<std::uint64_t> fig4aMiB = {64, 128, 256, 512};
const std::vector<std::uint64_t> strides = {oneGiB, 2 * oneMiB,
                                            4 * oneKiB};
const std::vector<std::uint64_t> churnMiB = {64, 128, 256};
const std::vector<Tick> ckptIntervals = {10 * oneMs, 100 * oneMs, oneSec};
const std::vector<unsigned> thresholds = {5, 25, 50};

std::uint64_t
scaled(std::uint64_t mib, const Scale &scale)
{
    return mib * oneMiB / scale.divisor;
}

/** Figure 6's hardware-only (@p os false) or hardware+OS point. */
const RunResult &
fig6Point(const Results &r, std::size_t bench, std::size_t th, bool os)
{
    return r[(bench * thresholds.size() + th) * 2 + os];
}

/** ablation_multiprocess: a YCSB foreground, @p background polluters.
 *  With at least as many processes as cores, a core that retires no
 *  instructions is fatal. */
Tick
runCoRunners(KindleSystem &sys, std::uint64_t ops, unsigned cores,
             unsigned background)
{
    // The foreground floats: the scheduler places it on the least
    // loaded core and may steal it across cores as queues drain.
    sys.kernel().spawn(
        replay(prep::Benchmark::ycsbMem, ops, prep::ReplayConfig{})(),
        "foreground");
    for (unsigned i = 0; i < background; ++i) {
        // Each polluter sweeps a buffer twice the LLC's size.
        micro::ScriptBuilder b;
        const Addr base = micro::scriptBase + (i + 4) * oneGiB;
        b.mmapFixed(base, 4 * oneMiB, /*nvm=*/false);
        b.touchPages(base, 4 * oneMiB);
        for (unsigned r = 0; r < 400; ++r)
            b.readPages(base, 4 * oneMiB);
        b.exit();
        const Pid pid =
            sys.kernel().spawn(b.build(), "polluter" + std::to_string(i));
        // Pin one polluter to each secondary core; surplus polluters
        // stay unpinned so runqueue imbalance exercises migration.
        if (cores > 1 && i < cores - 1) {
            sys.kernel().setAffinity(*sys.kernel().findProcess(pid),
                                     static_cast<int>(i + 1));
        }
    }
    sys.runAll();
    if (1 + background < cores)
        return sys.now();  // fewer processes than cores: idle is fine
    for (unsigned c = 0; c < cores; ++c) {
        auto &cs = sys.core(c).stats();
        if (cs.scalarValue("memOps") + cs.scalarValue("computeOps") <= 0) {
            kindle_fatal("cpu{} retired no instructions with {} "
                         "background procs", c, background);
        }
    }
    return sys.now();
}

/** fleet_storm's fleet: 1024 tenants at the default --scale of
 *  8, scaled like every row's sizes, with a quarter of them again as
 *  churn respawns. */
runner::FleetOptions
fleetOptions(const Scale &scale)
{
    runner::FleetOptions fo;
    fo.params.tenants = static_cast<unsigned>(
        std::max<std::uint64_t>(1, 1024 * 8 / scale.divisor));
    fo.params.churnSpawns = fo.params.tenants / 4;
    return fo;
}

const std::vector<Experiment> registry = {
    {"table2_benchmarks",
     [](const Scale &) { return Scenarios{}; },
     [](const Scale &scale, const Results &) {
         std::vector<Row> rows;
         for (const auto bench : tableTwo) {
             prep::WorkloadParams params;
             params.ops = scale.opsOr(200000);
             const prep::TraceStats st =
                 prep::computeStats(*prep::makeWorkload(bench, params));
             rows.push_back({wl(bench), std::to_string(st.totalOps),
                             fixed(st.readPct(), 0),
                             fixed(st.writePct(), 0)});
         }
         printArtifact("Table II",
                       "Benchmark details " + opsLabel(scale.opsOr(200000)),
                       {"Benchmark", "Total Ops", "read %", "write %"}, rows,
                       "Paper reference: Gapbs_pr 77/23, G500_sssp 68/32, "
                       "Ycsb_mem 71/29 (10,000,000 ops each)");
     },
     nullptr},

    {"fig4a_seq_alloc",
     [](const Scale &scale) {
         Scenarios out;
         for (const std::uint64_t mib : fig4aMiB) {
             for (const auto scheme :
                  {PtScheme::persistent, PtScheme::rebuild}) {
                 out.push_back(seqAllocScenario(scheme, scaled(mib, scale)));
             }
         }
         return out;
     },
     [](const Scale &scale, const Results &r) {
         std::vector<Row> rows;
         for (std::size_t i = 0; i < fig4aMiB.size(); ++i) {
             const auto &persistent = r[2 * i];
             const auto &rebuild = r[2 * i + 1];
             rows.push_back({sizeToString(scaled(fig4aMiB[i], scale)),
                             ms(persistent.ticks), ms(rebuild.ticks),
                             ratio(over(rebuild.ticks, persistent.ticks)),
                             ckptShare(rebuild)});
         }
         printArtifact("Figure 4a",
                       "Sequential allocation/access vs page-table scheme "
                       "(sizes / " + std::to_string(scale.divisor) +
                           ", --scale)",
                       {"Alloc size", "Persistent (ms)", "Rebuild (ms)",
                        "Rebuild/Persistent", "Rebuild ckpt share"},
                       rows,
                       "Paper shape: rebuild slower everywhere; overhead "
                       "grows with size (~2.4x at 64MiB to ~74x at 512MiB).");
     },
     [](const Results &r, Shape &s) {
         // (persistent, rebuild) per size: r[7] is rebuild at the
         // largest size, r[3] at a quarter of it.
         s.require(r[7].ticks > r[6].ticks,
                   "rebuild slower than persistent at the largest size");
         // 4x the pages: more checkpoints, each more expensive.
         s.require(r[7].ticks > r[3].ticks * 4,
                   "rebuild grows more than 4x over a 4x size step");
     }},

    {"fig4b_stride",
     [](const Scale &) {
         Scenarios out;
         for (const std::uint64_t stride : strides) {
             // Access rounds span ~10 checkpoint intervals.
             for (const auto scheme : {std::optional<PtScheme>(),
                                       std::optional(PtScheme::persistent),
                                       std::optional(PtScheme::rebuild)}) {
                 out.push_back(microScenario(
                     scheme, 10 * oneMs, sizeToString(stride),
                     {{"stride_bytes", std::to_string(stride)}}, [stride] {
                         return micro::strideAlloc(stride, 10, true, 10000);
                     }));
             }
         }
         return out;
     },
     [](const Scale &, const Results &r) {
         std::vector<Row> rows;
         for (std::size_t i = 0; i < strides.size(); ++i) {
             const Tick baseline = r[3 * i].ticks;
             const Tick persistent = r[3 * i + 1].ticks;
             const Tick rebuild = r[3 * i + 2].ticks;
             const double p_ovh = ticksToUs(persistent - baseline);
             const double r_ovh = ticksToUs(rebuild - baseline);
             rows.push_back({sizeToString(strides[i]), ms(persistent),
                             ms(rebuild), fixed(p_ovh, 1), fixed(r_ovh, 1),
                             ratio(p_ovh / r_ovh)});
         }
         printArtifact("Figure 4b",
                       "Stride allocation vs page-table scheme (10 x 4KiB "
                       "pages)",
                       {"Stride", "Persistent (ms)", "Rebuild (ms)",
                        "Persist ovh (us)", "Rebuild ovh (us)", "Ovh ratio"},
                       rows,
                       "Paper shape: persistent/rebuild > 1 for 1GiB and "
                       "2MiB strides, < 1 for the 4KiB stride.");
     },
     [](const Results &r, Shape &s) {
         // r[1] and r[7]: persistent at 1GiB and at 4KiB.  More table
         // levels per allocation, more wrapped stores.
         s.require(r[1].ticks > r[7].ticks,
                   "persistent slower at the 1GiB stride than at 4KiB");
     }},

    {"table3_vma_churn",
     [](const Scale &scale) {
         Scenarios out;
         for (const std::uint64_t mib : churnMiB) {
             for (const auto scheme :
                  {PtScheme::persistent, PtScheme::rebuild}) {
                 out.push_back(churnScenario(scheme, scaled(512, scale),
                                             scaled(mib, scale),
                                             10 * oneMs, 1));
             }
         }
         return out;
     },
     [](const Scale &scale, const Results &r) {
         std::vector<Row> rows;
         for (std::size_t i = 0; i < churnMiB.size(); ++i) {
             rows.push_back({sizeToString(scaled(churnMiB[i], scale)),
                             ms(r[2 * i].ticks), ms(r[2 * i + 1].ticks)});
         }
         printArtifact("Table III",
                       "VMA modification (munmap+mmap) cost, arena " +
                           sizeToString(scaled(512, scale)),
                       {"Alloc/Free size", "Persistent (ms)", "Rebuild (ms)"},
                       rows,
                       "Paper shape: both schemes grow with churn size "
                       "(~1.6x persistent, ~1.5x rebuild from smallest to "
                       "largest).");
     },
     [](const Results &r, Shape &s) {
         // (persistent, rebuild) per churn size, smallest first.
         s.require(r[4].ticks > r[0].ticks,
                   "persistent costs more at the largest churn");
         s.require(r[5].ticks > r[1].ticks,
                   "rebuild costs more at the largest churn");
     }},

    {"table4_ckpt_interval",
     [](const Scale &scale) {
         // Three access rounds: repeated TLB-missing sweeps.
         Scenarios out;
         for (const std::uint64_t mib : churnMiB) {
             for (const Tick interval : ckptIntervals) {
                 for (const auto scheme :
                      {PtScheme::persistent, PtScheme::rebuild}) {
                     out.push_back(churnScenario(
                         scheme, scaled(512, scale), scaled(mib, scale),
                         interval, 3));
                 }
             }
         }
         return out;
     },
     [](const Scale &scale, const Results &r) {
         std::vector<Row> rows;
         for (std::size_t i = 0; i < r.size(); i += 2) {
             const Tick interval = ckptIntervals[i / 2 % 3];
             rows.push_back({sizeToString(scaled(churnMiB[i / 6], scale)),
                             intervalName(interval), ms(r[i].ticks),
                             ms(r[i + 1].ticks), ckptShare(r[i]),
                             ckptShare(r[i + 1])});
         }
         printArtifact("Table IV",
                       "Checkpoint-interval sweep, arena " +
                           sizeToString(scaled(512, scale)),
                       {"Alloc/Free size", "Interval", "Persistent (ms)",
                        "Rebuild (ms)", "Ckpt share (P)", "Ckpt share (R)"},
                       rows,
                       "Paper shape: persistent flat across intervals; "
                       "rebuild ~5x cheaper at 100ms than 10ms and cheaper "
                       "than persistent once the interval exceeds the "
                       "runtime.");
     },
     [](const Results &r, Shape &s) {
         for (std::size_t c = 0; c < churnMiB.size(); ++c) {
             const std::string row = "churn row " + std::to_string(c);
             const auto ticks = [&](std::size_t interval, bool rebuild) {
                 return r[c * 6 + interval * 2 + rebuild].ticks;
             };
             const auto [lo, hi] = std::minmax(
                 {ticks(0, false), ticks(1, false), ticks(2, false)});
             // Paper: identical to the msec.
             s.require(hi < lo * 5 / 4,
                       row + ": persistent within 25% across intervals");
             s.require(ticks(0, true) > ticks(2, true),
                       row + ": rebuild cheaper at the widest interval");
             // Beyond the runtime the DRAM page table is simply faster.
             s.require(ticks(2, true) < ticks(2, false),
                       row + ": rebuild beats persistent at 1 sec");
         }
     }},

    {"fig5_ssp_interval",
     [](const Scale &scale) {
         // Per workload: the baseline, then the three intervals.
         Scenarios out;
         for (const auto bench : tableTwo) {
             for (const Tick interval : {Tick(0), oneMs, 5 * oneMs,
                                         10 * oneMs}) {
                 out.push_back(sspScenario(bench, scale.opsOr(200000),
                                           interval, oneMs));
             }
         }
         return out;
     },
     [](const Scale &scale, const Results &r) {
         std::vector<Row> rows;
         for (std::size_t i = 0; i < r.size(); ++i) {
             if (i % 4 == 0)
                 continue;  // a baseline
             const auto &baseline = r[i / 4 * 4];
             const std::string &interval = r[i].axes[1].second;  // "5ms"
             rows.push_back({r[i].axes[0].second,
                             interval.substr(0, interval.size() - 2) + " ms",
                             ms(baseline.ticks), ms(r[i].ticks),
                             ratio(over(r[i].ticks, baseline.ticks))});
         }
         printArtifact("Figure 5",
                       "SSP consistency-interval sweep " +
                           opsLabel(scale.opsOr(200000)),
                       {"Benchmark", "Interval", "Baseline (ms)", "SSP (ms)",
                        "Normalized"},
                       rows,
                       "Paper shape: normalized time > 1 everywhere and "
                       "decreasing with wider intervals (~3x lower at 10 ms "
                       "than 1 ms).");
     },
     [](const Results &r, Shape &s) {
         for (std::size_t b = 0; b < tableTwo.size(); ++b) {
             const std::string name = wl(tableTwo[b]);
             const Tick baseline = r[4 * b].ticks;
             const Tick at_1ms = r[4 * b + 1].ticks;
             const Tick at_10ms = r[4 * b + 3].ticks;
             s.require(at_1ms > baseline,
                       name + ": SSP at 1 ms above the baseline");
             s.require(at_10ms > baseline,
                       name + ": SSP at 10 ms above the baseline");
             s.require(at_1ms > at_10ms,
                       name + ": SSP at 1 ms slower than at 10 ms");
         }
     }},

    {"fig6_hscc_migration",
     [](const Scale &scale) {
         // (workload, threshold) major, hardware-only before
         // hardware+OS.
         Scenarios out;
         for (const auto bench : tableTwo) {
             for (const unsigned th : thresholds) {
                 for (const bool os : {false, true}) {
                     out.push_back(hsccScenario(
                         bench, scale.opsOr(1000000), th, os));
                 }
             }
         }
         return out;
     },
     [](const Scale &scale, const Results &r) {
         // Tables V and VI read the hardware+OS points' hscc stats.
         const std::string ops = opsLabel(scale.opsOr(1000000));
         std::vector<Row> fig6, table5, table6;
         for (std::size_t b = 0; b < tableTwo.size(); ++b) {
             std::uint64_t migrated[3];
             for (std::size_t t = 0; t < thresholds.size(); ++t) {
                 const auto &hw = fig6Point(r, b, t, false);
                 const auto &os = fig6Point(r, b, t, true);
                 const std::string th =
                     "Th-" + std::to_string(thresholds[t]);
                 fig6.push_back({wl(tableTwo[b]), th, ms(hw.ticks),
                                 ms(os.ticks),
                                 ratio(over(os.ticks, hw.ticks))});
                 migrated[t] = stat(os, "hscc.pagesMigrated");
                 const double sel = stat(os, "hscc.selectionTicks");
                 const double copy = stat(os, "hscc.copyTicks");
                 const double total = sel + copy;
                 table6.push_back(
                     {wl(tableTwo[b]), th,
                      fixed(total > 0 ? 100.0 * sel / total : 0, 2),
                      fixed(total > 0 ? 100.0 * copy / total : 0, 2),
                      std::to_string(migrated[t])});
             }
             // "-" when no threshold migrated anything.
             const auto reduction = [&](std::size_t t) -> std::string {
                 if (migrated[t] == 0)
                     return migrated[0] == 0 ? "-" : "inf";
                 return ratio(static_cast<double>(migrated[0]) /
                              static_cast<double>(migrated[t]));
             };
             table5.push_back({wl(tableTwo[b]), std::to_string(migrated[0]),
                               std::to_string(migrated[1]),
                               std::to_string(migrated[2]), reduction(1),
                               reduction(2)});
         }
         printArtifact("Figure 6", "HSCC OS-migration overhead " + ops,
                       {"Benchmark", "Threshold", "HW-only (ms)",
                        "HW+OS (ms)", "Normalized"},
                       fig6,
                       "Paper shape: normalized > 1 everywhere; overhead "
                       "falls as the fetch threshold rises.");
         printArtifact("Table V", "Pages migrated " + ops,
                       {"Benchmark", "Th-5", "Th-25", "Th-50", "Th-5/Th-25",
                        "Th-5/Th-50"},
                       table5,
                       "Paper shape: steep reduction with threshold "
                       "(Ycsb_mem: ~13x at Th-25, ~101x at Th-50).");
         printArtifact("Table VI", "OS migration time split " + ops,
                       {"Benchmark", "Fetch Threshold", "Page Selection (%)",
                        "Page Copy (%)", "Pages"},
                       table6,
                       "Paper shape: page copy dominates everywhere "
                       "(62.65%-98.63%); selection spikes when the pool "
                       "runs out of free/clean pages.");
     },
     [](const Results &r, Shape &s) {
         for (std::size_t b = 0; b < tableTwo.size(); ++b) {
             const std::string name = wl(tableTwo[b]);
             const auto norm = [&](std::size_t t) {
                 return over(fig6Point(r, b, t, true).ticks,
                             fig6Point(r, b, t, false).ticks);
             };
             s.require(norm(0) > 1.0,
                       name + ": OS migration work costs at Th-5");
             s.require(norm(0) >= norm(2) * 0.98,
                       name + ": normalized Th-5 at least 0.98x Th-50");
             for (std::size_t t = 0; t < thresholds.size(); ++t) {
                 const auto &os = fig6Point(r, b, t, true);
                 const std::string th =
                     " at Th-" + std::to_string(thresholds[t]);
                 s.require(t == 0 ||
                               stat(os, "hscc.pagesMigrated") <=
                                   stat(fig6Point(r, b, t - 1, true),
                                        "hscc.pagesMigrated"),
                           name + ": no more pages migrated" + th +
                               " than at the threshold below");
                 s.require(stat(os, "hscc.pagesMigrated") == 0 ||
                               stat(os, "hscc.copyTicks") >
                                   stat(os, "hscc.selectionTicks"),
                           name + ": page copy outweighs selection" + th);
             }
         }
     }},

    {"ablation_ssp_consolidation",
     [](const Scale &scale) {
         // A fixed 5 ms consistency interval: the 1 ms rows are
         // Figure 5's 5 ms points.
         Scenarios out;
         for (const auto bench :
              {prep::Benchmark::gapbsPr, prep::Benchmark::ycsbMem}) {
             for (const Tick interval : {oneMs / 5, oneMs, 5 * oneMs}) {
                 Scenario sc = sspScenario(bench, scale.opsOr(200000),
                                           5 * oneMs, interval);
                 const std::string label =
                     fixed(double(interval) / double(oneMs), 1) + " ms";
                 sc.name += "/consolidate " + label;
                 sc.axes.push_back({"consolidation", label});
                 out.push_back(std::move(sc));
             }
         }
         return out;
     },
     [](const Scale &scale, const Results &r) {
         std::vector<Row> rows;
         for (const auto &run : r) {
             rows.push_back({run.axes[0].second, run.axes[2].second,
                             ms(run.ticks),
                             std::to_string(stat(run, "ssp.consolidations"))});
         }
         printArtifact("Ablation (SSP)",
                       "Consolidation-thread interval sweep " +
                           opsLabel(scale.opsOr(200000)),
                       {"Benchmark", "Consolidation interval", "Exec (ms)",
                        "Consolidations"},
                       rows,
                       "Expectation: more frequent consolidation raises "
                       "overhead (the paper fixes it at 1 ms for this "
                       "reason).");
     },
     nullptr},

    {"ablation_pt_placement",
     [](const Scale &scale) {
         // No persistence domain: placement only, plain PTE stores.
         Scenarios out;
         for (const std::uint64_t mib : {32, 128}) {
             const std::uint64_t bytes = scaled(mib, scale);
             for (const unsigned sweeps : {1u, 8u}) {
                 for (const bool nvm : {false, true}) {
                     const std::string home = nvm ? "nvm" : "dram";
                     Scenario sc = paperMachine(
                         "pt-" + home + "/" + sizeToString(bytes) + "/x" +
                             std::to_string(sweeps),
                         {{"pt_home", home},
                          {"working_set", std::to_string(bytes)},
                          {"sweeps", std::to_string(sweeps)}});
                     sc.config.kernel.ptInNvm = nvm;
                     sc.program = [bytes, sweeps] {
                         micro::ScriptBuilder b;
                         b.mmapFixed(micro::scriptBase, bytes, true);
                         b.touchPages(micro::scriptBase, bytes);
                         for (unsigned s = 0; s < sweeps; ++s)
                             b.readPages(micro::scriptBase, bytes);
                         b.munmap(micro::scriptBase, bytes);
                         b.exit();
                         return b.build();
                     };
                     out.push_back(std::move(sc));
                 }
             }
         }
         return out;
     },
     [](const Scale &, const Results &r) {
         std::vector<Row> rows;
         for (std::size_t i = 0; i < r.size(); i += 2) {
             rows.push_back(
                 {sizeToString(std::stoull(r[i].axes[1].second)),
                  r[i].axes[2].second, ms(r[i].ticks), ms(r[i + 1].ticks),
                  ratio(over(r[i + 1].ticks, r[i].ticks))});
         }
         printArtifact("Ablation (PT placement)",
                       "Page-table home vs TLB-miss-heavy sweeps, no "
                       "checkpointing",
                       {"Working set", "Sweeps", "PT in DRAM (ms)",
                        "PT in NVM (ms)", "NVM/DRAM"},
                       rows,
                       "Expectation: modest NVM penalty (caches hide most "
                       "walk latency), growing with TLB pressure.");
     },
     nullptr},

    {"ablation_nvm_tech",
     [](const Scale &scale) {
         // The PCM row is Figure 4a's first row.
         Scenarios out;
         for (const auto &tech :
              {mem::pcmParams(), mem::rramParams(), mem::sttMramParams()}) {
             for (const auto scheme :
                  {PtScheme::persistent, PtScheme::rebuild}) {
                 Scenario sc = seqAllocScenario(scheme, scaled(64, scale));
                 sc.name = std::string(tech.name) + "/" + sc.name;
                 sc.axes.push_back({"nvm", tech.name});
                 sc.config.memory.nvmTiming = tech;
                 out.push_back(std::move(sc));
             }
         }
         return out;
     },
     [](const Scale &scale, const Results &r) {
         std::vector<Row> rows;
         for (std::size_t i = 0; i < r.size(); i += 2) {
             rows.push_back({r[i].axes[2].second, ms(r[i].ticks),
                             ms(r[i + 1].ticks),
                             ratio(over(r[i + 1].ticks, r[i].ticks))});
         }
         printArtifact("Ablation (NVM technology)",
                       "Persistence cost vs NVM device model, " +
                           sizeToString(scaled(64, scale)) + " alloc/touch",
                       {"NVM model", "Persistent (ms)", "Rebuild (ms)",
                        "Rebuild/Persistent"},
                       rows,
                       "Expectation: faster NVM writes shrink both schemes' "
                       "absolute costs; the rebuild/persistent gap narrows "
                       "as the consistency-wrapped store gets cheaper "
                       "relative to the list traversal.");
     },
     nullptr},

    {"ablation_multiprocess",
     [](const Scale &scale) {
         // Alone, 1 and 3 co-runners, and on N cores an oversubscribed
         // 2N-1 (on 2 cores, 3 again).
         std::vector<unsigned> counts = {0u, 1u, 3u};
         if (scale.cores > 1)
             counts.push_back(2 * scale.cores - 1);
         Scenarios out;
         for (std::size_t i = 0; i < counts.size(); ++i) {
             Scenario sc = paperMachine(
                 (i == 3 ? "oversubscribed/bg" : "bg") +
                     std::to_string(counts[i]),
                 {{"cores", std::to_string(scale.cores)},
                  {"background", std::to_string(counts[i])}});
             sc.config.numCores = scale.cores;
             sc.drive = [ops = scale.opsOr(200000), cores = scale.cores,
                         background = counts[i]](
                            KindleSystem &sys, statistics::StatSnapshot &) {
                 return runCoRunners(sys, ops, cores, background);
             };
             out.push_back(std::move(sc));
         }
         return out;
     },
     [](const Scale &scale, const Results &r) {
         std::vector<Row> rows;
         for (const auto &run : r) {
             rows.push_back(
                 {run.axes[1].second, ms(run.ticks),
                  std::to_string(stat(run, "kernel.contextSwitches")),
                  std::to_string(static_cast<std::uint64_t>(
                      run.stats.getOr("kernel.migrations", 0))),
                  ratio(over(run.ticks, r[0].ticks))});
         }
         const std::string cores = std::to_string(scale.cores);
         printArtifact("Ablation (multi-process)",
                       "Context switches + cache pollution (" + cores +
                           " cores, --ops " +
                           std::to_string(scale.opsOr(200000)) + ")",
                       {"Background procs", "Total (ms)", "Context switches",
                        "Migrations", "Slowdown"},
                       rows,
                       scale.cores > 1
                           ? "Per-core retirement (last row): all " + cores +
                                 " cores retired instructions.\n"
                                 "Expectation: pinned polluters keep "
                                 "secondary cores busy while the unpinned "
                                 "foreground and surplus polluters migrate "
                                 "between runqueues; slowdown now mixes "
                                 "time-sharing with shared-LLC coherence "
                                 "traffic."
                           : "Expectation: co-runners add far more than "
                             "their CPU share — timeslice interleaving plus "
                             "cache/TLB pollution — an effect user-level "
                             "simulators cannot attribute.");
     },
     nullptr},

    {"ablation_incremental_ckpt",
     [](const Scale &scale) {
         // The full-rebuild column is Figure 4a's rebuild column.
         Scenarios out;
         for (const std::uint64_t mib : fig4aMiB) {
             const std::uint64_t bytes = scaled(mib, scale);
             out.push_back(seqAllocScenario(PtScheme::rebuild, bytes));
             Scenario sc = seqAllocScenario(PtScheme::rebuild, bytes);
             sc.name = "incremental/" + sizeToString(bytes);
             sc.axes.push_back({"mapping_list", "incremental"});
             sc.config.persistence->incrementalMappingList = true;
             out.push_back(std::move(sc));
         }
         return out;
     },
     [](const Scale &scale, const Results &r) {
         std::vector<Row> rows;
         for (std::size_t i = 0; i < fig4aMiB.size(); ++i) {
             const Tick full = r[2 * i].ticks;
             const Tick incremental = r[2 * i + 1].ticks;
             rows.push_back({sizeToString(scaled(fig4aMiB[i], scale)),
                             ms(full), ms(incremental),
                             ratio(over(full, incremental))});
         }
         printArtifact("Ablation (incremental checkpointing)",
                       "Rebuild scheme: full traversal vs event-driven "
                       "mapping list",
                       {"Alloc size", "Full rebuild (ms)", "Incremental (ms)",
                        "Speedup"},
                       rows,
                       "Expectation: the incremental variant removes the "
                       "size-proportional checkpoint cost, flattening the "
                       "Figure 4a curve while recovery still rebuilds the "
                       "same page table.");
     },
     nullptr},

    {"ablation_hscc_dynamic",
     [](const Scale &scale) {
         // The static points are Figure 6's hardware+OS points.
         Scenarios out;
         for (const auto bench :
              {prep::Benchmark::ycsbMem, prep::Benchmark::g500Sssp}) {
             const std::uint64_t ops = scale.opsOr(1000000);
             out.push_back(hsccScenario(bench, ops, 5, true));
             out.push_back(hsccScenario(bench, ops, 50, true));
             // Starting aggressive (Th-5), the controller backs off when
             // candidates flood the 512-page pool.
             Scenario sc = hsccScenario(bench, ops, 5, true);
             sc.name = wl(bench) + "/dynamic";
             sc.axes[1].second = "dynamic";
             sc.config.hscc->dynamicThreshold = true;
             out.push_back(std::move(sc));
         }
         return out;
     },
     [](const Scale &scale, const Results &r) {
         std::vector<Row> rows;
         for (const auto &run : r) {
             const std::string &th = run.axes[1].second;
             rows.push_back(
                 {run.axes[0].second,
                  th == "dynamic" ? th : "static Th-" + th,
                  std::to_string(stat(run, "hscc.pagesMigrated")),
                  ms(stat(run, "hscc.migrationTicks")), ms(run.ticks)});
         }
         printArtifact("Ablation (HSCC dynamic threshold)",
                       "Static Th-5 / Th-50 vs dynamic controller " +
                           opsLabel(scale.opsOr(1000000)),
                       {"Benchmark", "Config", "Pages migrated",
                        "OS migration (ms)", "Exec (ms)"},
                       rows,
                       "Expectation: the controller tempers Th-5's "
                       "migration flood without giving up as much DRAM "
                       "benefit as a blunt Th-50.");
     },
     [](const Results &r, Shape &s) {
         for (std::size_t i = 0; i < r.size(); i += 3) {
             const auto pages = [&](std::size_t k) {
                 return stat(r[i + k], "hscc.pagesMigrated");
             };
             s.require(pages(1) <= pages(2) && pages(2) <= pages(0),
                       r[i].axes[0].second +
                           ": dynamic migrations between static Th-50 "
                           "and Th-5");
         }
     }},

    {"fleet_storm",
     [](const Scale &scale) {
         // The scalability axis of the paper's multiprogrammed story:
         // the same fleet time-shared on one core and spread over four
         // (and over --cores N, for any other N).
         const runner::FleetOptions fo = fleetOptions(scale);
         std::vector<unsigned> core_counts = {1, 4};
         if (scale.cores != 1 && scale.cores != 4)
             core_counts.push_back(scale.cores);
         Scenarios out;
         for (const unsigned cores : core_counts) {
             runner::Axes axes = {
                 {"cores", std::to_string(cores)},
                 {"tenants", std::to_string(fo.params.tenants)},
                 {"churn", std::to_string(fo.params.churnSpawns)},
                 {"arrival", fleet::arrivalName(fo.params.arrival)},
             };
             out.push_back(runner::makeFleetScenario(
                 "c" + std::to_string(cores), std::move(axes), fo, cores));
         }
         return out;
     },
     [](const Scale &scale, const Results &r) {
         const fleet::FleetParams fp = fleetOptions(scale).params;
         std::vector<Row> rows;
         for (const auto &run : r) {
             // getOr: reclaim/OOM stats register lazily, so absent
             // paths read as zero here.
             const auto count = [&](const char *path) {
                 return std::to_string(
                     static_cast<std::uint64_t>(run.stats.getOr(path, 0)));
             };
             rows.push_back({run.name, count("fleet.spawned"),
                             count("fleet.churnSpawns"),
                             count("fleet.peakLive"), count("fleet.requests"),
                             count("persist.checkpoints"),
                             count("kernel.oomKills"),
                             count("kernel.reclaim.pagesDemoted")});
         }
         printHeader("Fleet storm",
                     std::to_string(fp.tenants) + " tenants (1024 x 8 / "
                         "--scale), churn " +
                         std::to_string(fp.churnSpawns) + ", zipf " +
                         fixed(fp.zipfTheta, 2) + ", " +
                         fleet::arrivalName(fp.arrival) +
                         " arrivals, pressure + OOM armed");
         printTable({"Cores", "Spawned", "Churn", "PeakLive", "Requests",
                     "Ckpts", "OomKills", "Demotions"},
                    rows);
     },
     [](const Results &r, Shape &s) {
         for (const auto &run : r) {
             const auto value = [&](const char *path) {
                 return run.stats.getOr(path, 0);
             };
             const double tenants = value("fleet.tenants");
             const double churn = std::stod(run.axes[2].second);
             const std::string at = run.name + ": ";
             s.require(value("fleet.spawned") == tenants + churn,
                       at + "every tenant and churn spawn ran");
             s.require(value("fleet.peakLive") == tenants,
                       at + "the whole fleet was live at once");
             s.require(value("kernel.oomKills") > 0,
                       at + "the OOM killer fired");
             s.require(value("kernel.reclaim.pagesDemoted") > 0,
                       at + "reclaim demoted pages");
             s.require(value("persist.earlyCheckpoints") > 0,
                       at + "pressure relief forced early checkpoints");
             s.require(value("fleet.requests") <=
                           value("fleet.spawned") *
                               fleet::FleetParams{}.requestsPerTenant,
                       at + "no tenant served beyond its request budget");
         }
     }},
};

} // namespace

const std::vector<Experiment> &
experiments()
{
    return registry;
}

const Experiment &
findExperiment(std::string_view name)
{
    std::string valid;
    for (const Experiment &row : registry) {
        if (name == row.name)
            return row;
        valid += valid.empty() ? "" : ", ";
        valid += row.name;
    }
    kindle_fatal("unknown experiment '{}' (valid: {})", name, valid);
}

} // namespace kindle::bench
