/**
 * @file
 * Fleet workload generator tests: the seeded-randomness helpers it is
 * built from, the determinism of tenant identity derivation, and the
 * end-to-end contracts the bench relies on — a churning multi-core
 * fleet is a pure function of its seed, and a pressure-squeezed fleet
 * drives reclaim and the OOM killer while still draining to zero.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <vector>

#include "base/rand.hh"
#include "base/random.hh"
#include "base/stats.hh"
#include "fleet/fleet.hh"
#include "kindle/kindle.hh"
#include "kindle/microbench.hh"
#include "persist/saved_state.hh"
#include "runner/fleet_scenario.hh"

namespace kindle
{
namespace
{

TEST(RandTest, DeriveSeedIsStableAndDecorrelated)
{
    // Same inputs, same seed — tenant identity depends on this.
    EXPECT_EQ(rand::deriveSeed(42, 7), rand::deriveSeed(42, 7));
    // Adjacent streams must land on distinct states (the `base + i`
    // anti-pattern this helper replaces would correlate them).
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 256; ++i)
        seen.insert(rand::deriveSeed(42, i));
    EXPECT_EQ(seen.size(), 256u);
    // And a different master seed moves every stream.
    EXPECT_NE(rand::deriveSeed(42, 7), rand::deriveSeed(43, 7));
}

TEST(RandTest, ExpIntervalIsPositiveWithRequestedMean)
{
    Random rng(1234);
    const double mean = 20000.0;
    double sum = 0.0;
    const int draws = 50000;
    for (int i = 0; i < draws; ++i) {
        const double v = rand::expInterval(rng, mean);
        ASSERT_GT(v, 0.0);
        sum += v;
    }
    const double sample_mean = sum / draws;
    EXPECT_NEAR(sample_mean, mean, mean * 0.05);
}

TEST(RandTest, WeightedPickerTracksWeights)
{
    Random rng(99);
    const rand::WeightedPicker picker({0.8, 0.15, 0.05});
    ASSERT_EQ(picker.size(), 3u);
    std::array<int, 3> hits{};
    const int draws = 20000;
    for (int i = 0; i < draws; ++i) {
        const std::size_t c = picker.pick(rng);
        ASSERT_LT(c, 3u);
        ++hits[c];
    }
    // All classes occur, in weight order, with the heavy class near
    // its nominal share.
    EXPECT_GT(hits[2], 0);
    EXPECT_GT(hits[0], hits[1]);
    EXPECT_GT(hits[1], hits[2]);
    EXPECT_NEAR(hits[0] / double(draws), 0.8, 0.03);
}

TEST(FleetTest, ZipfianKeysAreSkewedDeterministicInRange)
{
    const std::uint64_t n = 64;
    ZipfianGenerator keys(n, 0.99, 7);
    std::vector<std::uint64_t> counts(n, 0);
    const int draws = 20000;
    for (int i = 0; i < draws; ++i) {
        const std::uint64_t k = keys.next();
        ASSERT_LT(k, n);
        ++counts[k];
    }
    // YCSB theta=0.99: the most popular key takes far more than the
    // uniform share.
    const std::uint64_t top =
        *std::max_element(counts.begin(), counts.end());
    EXPECT_GT(top, 4u * (draws / n));

    // Same seed → same stream; different seed → different stream.
    ZipfianGenerator a(n, 0.99, 7), b(n, 0.99, 7), c(n, 0.99, 8);
    bool differs = false;
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        differs |= (va != c.next());
    }
    EXPECT_TRUE(differs);
}

TEST(FleetTest, TenantSpecsAreDeterministicWithSkewedMix)
{
    fleet::FleetParams params;  // defaults: 0.80/0.15/0.05 weights
    std::uint64_t small = 0, medium = 0, large = 0;
    for (unsigned i = 0; i < 400; ++i) {
        const fleet::TenantSpec spec = fleet::makeTenantSpec(params, i);
        const fleet::TenantSpec again =
            fleet::makeTenantSpec(params, i);
        EXPECT_EQ(spec.id, i);
        EXPECT_EQ(spec.seed, again.seed);
        EXPECT_EQ(spec.heapPages, again.heapPages);
        if (spec.heapPages == params.smallPages)
            ++small;
        else if (spec.heapPages == params.mediumPages)
            ++medium;
        else if (spec.heapPages == params.largePages)
            ++large;
        else
            FAIL() << "tenant " << i << " drew unknown size class "
                   << spec.heapPages;
    }
    // The long-tailed fleet mix: mostly small, some medium, a few
    // hundred-MiB-class heavies — and every class represented.
    EXPECT_GT(small, medium);
    EXPECT_GT(medium, large);
    EXPECT_GT(large, 0u);
}

/** Drive one fleet scenario on a fresh system; return all stats. */
statistics::StatSnapshot
runFleet(const runner::FleetOptions &opts, unsigned cores)
{
    runner::Scenario sc =
        runner::makeFleetScenario("t", {}, opts, cores);
    KindleSystem sys(sc.config);
    statistics::StatSnapshot extra;
    sc.drive(sys, extra);
    auto snap = sys.snapshotStats();
    for (const auto &[path, value] : extra.entries())
        snap.set(path, value);
    return snap;
}

TEST(FleetTest, ChurningFleetIsDeterministic)
{
    // Spawns interleaved with exits across two cores' scheduler
    // epochs must still be a pure function of the seed: two runs,
    // byte-identical snapshots.
    runner::FleetOptions opts;
    opts.params.tenants = 24;
    opts.params.churnSpawns = 8;
    opts.params.requestsPerTenant = 6;
    const auto s1 = runFleet(opts, 2);
    const auto s2 = runFleet(opts, 2);
    EXPECT_TRUE(s1 == s2);
    EXPECT_EQ(s1.get("fleet.spawned"), 32.0);
    EXPECT_GT(s1.get("fleet.requests"), 0.0);

    // A different seed must actually change behaviour somewhere.
    runner::FleetOptions other = opts;
    other.params.seed = opts.params.seed + 1;
    const auto s3 = runFleet(other, 2);
    EXPECT_FALSE(s1 == s3);
}

TEST(FleetTest, BurstyArrivalsDifferFromPoisson)
{
    runner::FleetOptions opts;
    opts.params.tenants = 12;
    opts.params.requestsPerTenant = 6;
    const auto poisson = runFleet(opts, 1);
    opts.params.arrival = fleet::Arrival::bursty;
    const auto bursty = runFleet(opts, 1);
    // The whole request budget either way (the pressure plan's floors
    // leave a fleet this small unsqueezed), different timing
    // everywhere.
    EXPECT_EQ(poisson.get("fleet.requests"), 72.0);
    EXPECT_EQ(bursty.get("fleet.requests"), 72.0);
    EXPECT_FALSE(poisson == bursty);
}

TEST(FleetTest, PressuredFleetDrivesReclaimAndOomAcrossManySlots)
{
    // 80 tenants exceeds one 64-bit slot word in the kernel's process
    // tables, and the tightened zones force the full pressure chain:
    // NVM degradation, reclaim demotions and OOM kills — whose
    // victims churn replaces.  The fleet must still drain to zero.
    runner::FleetOptions opts;
    opts.params.tenants = 80;
    opts.params.churnSpawns = 20;
    runner::Scenario sc =
        runner::makeFleetScenario("t", {}, opts, 4);
    ASSERT_TRUE(sc.config.kernel.pressure.enabled());
    // The default floors (1024 DRAM / 512 NVM frames) are roomy at
    // this scale; shrink to the per-tenant ratios the 1k-tenant bench
    // runs at so the squeeze actually bites.
    sc.config.kernel.pressure.dramZoneFrames = opts.params.tenants * 5;
    sc.config.kernel.pressure.nvmZoneFrames = opts.params.tenants * 6;

    KindleSystem sys(sc.config);
    statistics::StatSnapshot extra;
    sc.drive(sys, extra);
    auto snap = sys.snapshotStats();
    for (const auto &[path, value] : extra.entries())
        snap.set(path, value);

    EXPECT_EQ(sys.kernel().liveProcessCount(), 0u);
    EXPECT_EQ(snap.get("fleet.spawned"), 100.0);
    EXPECT_GT(snap.getOr("kernel.nvmDegradedAllocs", 0), 0.0);
    EXPECT_GT(snap.getOr("kernel.reclaim.pagesDemoted", 0), 0.0);
    EXPECT_GT(snap.getOr("kernel.oomKills", 0), 0.0);
    // Checkpoint storms ran, and the clean-skip kept sweep cost
    // proportional to the tenants that actually progressed.
    EXPECT_GT(snap.getOr("persist.checkpoints", 0), 0.0);
    EXPECT_GT(snap.getOr("persist.cleanSkips", 0), 0.0);
}

/** persist.cleanSkips, which appears with the first skip. */
double
cleanSkips(KindleSystem &sys)
{
    const statistics::StatGroup &g = sys.persistence()->stats();
    return g.hasScalar("cleanSkips") ? g.scalarValue("cleanSkips") : 0;
}

/**
 * Soundness audit of the clean-skip sweep, which visits only the
 * processes a kernel hook listed plus core occupants.  At every
 * completed checkpoint, each live process's durable context and
 * mapping list must equal its live state, and every live process must
 * have been either swept or skipped as clean.
 */
struct DurableImageAudit
{
    explicit DurableImageAudit(KindleSystem &sys_arg)
        : sys(sys_arg),
          skips(cleanSkips(sys)),
          sweeps(sys.injector().hitsOf("ckpt.after_commit"))
    {
        sys.injector().setObserver(
            [this](const std::string &name, std::uint64_t) {
                if (name == "ckpt.complete")
                    check();
            });
    }

    void
    check()
    {
        os::Kernel &kernel = sys.kernel();
        const double now_skips = cleanSkips(sys);
        const std::uint64_t now_sweeps =
            sys.injector().hitsOf("ckpt.after_commit");
        EXPECT_EQ(static_cast<double>(now_sweeps - sweeps) +
                      (now_skips - skips),
                  static_cast<double>(kernel.liveProcessCount()));
        skips = now_skips;
        sweeps = now_sweeps;
        for (const auto &proc : kernel.processes()) {
            if (proc->state == os::ProcState::zombie)
                continue;
            persist::SavedStateSlot probe(kernel.kmem(),
                                          kernel.nvmLayout(), proc->slot);
            const persist::SlotHeader hdr = probe.readHeader();
            ASSERT_EQ(hdr.pid, proc->pid);
            persist::SavedContext durable;
            ASSERT_EQ(probe.readConsistentContext(hdr, durable),
                      persist::ImageStatus::ok);
            EXPECT_TRUE(persist::sameContext(
                durable, persist::SavedStateSlot::snapshot(
                             *proc, kernel.contextOf(*proc))))
                << "pid " << proc->pid << " checkpoint " << checked;

            std::vector<std::pair<std::uint64_t, std::uint64_t>> list,
                walked;
            std::vector<persist::MappingEntry> durable_list;
            ASSERT_EQ(probe.readMappingList(hdr, durable_list),
                      persist::ImageStatus::ok);
            for (const auto &m : durable_list)
                list.emplace_back(m.vpn, m.pfn);
            kernel.pageTables().forEachLeaf(
                proc->ptRoot, [&](Addr va, cpu::Pte pte, Addr) {
                    if (pte.nvmBacked())
                        walked.emplace_back(cpu::vpnOf(va), pte.pfn());
                });
            std::sort(list.begin(), list.end());
            EXPECT_EQ(list, walked) << "pid " << proc->pid;
        }
        ++checked;
    }

    KindleSystem &sys;
    unsigned checked = 0;
    double skips = 0;
    std::uint64_t sweeps = 0;
};

TEST(FleetTest, DirtySetCheckpointsMatchEveryLiveProcess)
{
    // A churning, pressured 4-core fleet: switches, exits, OOM kills,
    // reclaim demotions and respawns into reused slots all between
    // checkpoints.
    runner::FleetOptions opts;
    opts.params.tenants = 48;
    opts.params.churnSpawns = 16;
    opts.params.requestsPerTenant = 64;
    runner::Scenario sc =
        runner::makeFleetScenario("t", {}, opts, 4);
    ASSERT_TRUE(sc.config.persistence.has_value());
    ASSERT_TRUE(sc.config.kernel.pressure.enabled());
    sc.config.kernel.pressure.dramZoneFrames = opts.params.tenants * 5;
    sc.config.kernel.pressure.nvmZoneFrames = opts.params.tenants * 6;

    KindleSystem sys(sc.config);
    DurableImageAudit audit(sys);
    statistics::StatSnapshot extra;
    sc.drive(sys, extra);

    EXPECT_GT(audit.checked, 10u);
    EXPECT_GT(audit.skips, 0.0);
    EXPECT_TRUE(sys.kernel().stats().hasScalar("oomKills"));
}

TEST(FleetTest, DirtySetSweepsOccupantThatIsNeverSwitchedOut)
{
    // A lone process is re-picked at every slice end, so after its
    // first switch-in no hook ever fires for it again; only the
    // resident-occupant rule keeps its checkpoints current.
    KindleConfig cfg;
    cfg.memory.dramBytes = 256 * oneMiB;
    cfg.memory.nvmBytes = 256 * oneMiB;
    cfg.persistence = persist::PersistParams{persist::PtScheme::rebuild,
                                             oneMs};
    KindleSystem sys(cfg);
    DurableImageAudit audit(sys);
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, 16 * pageSize, true);
    for (int i = 0; i < 40; ++i) {
        b.touchPages(micro::scriptBase, 16 * pageSize);
        b.compute(500000);
    }
    b.exit();
    sys.run(b.build(), "lone");

    EXPECT_GT(audit.checked, 5u);
    EXPECT_EQ(sys.kernel().stats().scalarValue("contextSwitches"), 1);
}

TEST(FleetTest, DirtySetCoversTeardownInterruptedByCheckpoint)
{
    // An OOM-style kill tears down a process that is not running.
    // munmap removes its VMA first and then services the event queue
    // in the TLB shootdown, before onVmaRemoved fires; a checkpoint
    // due at that point must still see the process as dirty.
    KindleConfig cfg;
    cfg.numCores = 2;
    cfg.memory.dramBytes = 256 * oneMiB;
    cfg.memory.nvmBytes = 256 * oneMiB;
    cfg.persistence = persist::PersistParams{persist::PtScheme::rebuild,
                                             oneSec};
    KindleSystem sys(cfg);
    os::Kernel &kernel = sys.kernel();
    os::Process &victim = kernel.spawnShell("victim", 3);
    kernel.sysMmap(victim, micro::scriptBase, 4 * pageSize, 0);
    persist::PersistDomain &persist = *sys.persistence();
    persist.checkpointNow();
    persist.checkpointNow();
    ASSERT_EQ(cleanSkips(sys), 1);

    DurableImageAudit audit(sys);
    persist.requestEarlyCheckpoint();
    kernel.exitProcess(victim);
    EXPECT_EQ(audit.checked, 1u);
}

} // namespace
} // namespace kindle
