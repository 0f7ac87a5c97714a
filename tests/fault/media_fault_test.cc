/**
 * @file
 * End-to-end media fault scenarios: the patrol scrubber healing drift
 * faults, uncorrectable damage driving frame retirement and live page
 * migration, the bad-frame list surviving crash+reboot under both
 * page-table schemes, the degraded MAP_NVM allocation path, recovery
 * quarantining saved state that sits on retired frames, and media
 * configurations running concurrently under the SweepRunner (the TSan
 * coverage for the scrubber/retirement machinery).
 */

#include <vector>

#include <gtest/gtest.h>

#include "kindle/kindle.hh"
#include "kindle/microbench.hh"
#include "os/bad_frames.hh"
#include "runner/sweep_runner.hh"

namespace kindle
{
namespace
{

constexpr Tick scrubInterval = oneMs / 10;

/** Media-enabled config: scrubber patrols the whole device per tick. */
KindleConfig
mediaConfig(persist::PtScheme scheme)
{
    KindleConfig cfg;
    cfg.memory.dramBytes = 128 * oneMiB;
    cfg.memory.nvmBytes = 128 * oneMiB;
    cfg.persistence = persist::PersistParams{scheme, oneMs};
    // Unarmed: sets the power-loss model (torn stores) the crash
    // tests below apply.
    cfg.fault = fault::FaultPlan{};
    // A sentinel drift fault in a far corner keeps the media model
    // enabled without perturbing any workload (the first patrol pass
    // heals it); individual tests plant their own damage.
    cfg.memory.media.faults.push_back(
        {/*frame=*/30000, /*line=*/0, /*bits=*/1, /*sticky=*/false});
    cfg.scrub = mem::ScrubParams{scrubInterval, 128 * oneMiB};
    return cfg;
}

std::unique_ptr<cpu::OpStream>
longNvmWorkload(std::uint64_t pages = 16)
{
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, pages * pageSize, true);
    b.touchPages(micro::scriptBase, pages * pageSize);
    // Fine-grained bursts (~10us at 3 GHz) keep sim.service() running
    // often enough that patrol events fire close to their due ticks.
    for (int i = 0; i < 20000; ++i)
        b.compute(30000);
    b.exit();
    return b.build();
}

/** First present NVM-backed leaf of the process: (vaddr, frame). */
std::pair<Addr, Addr>
firstNvmMapping(KindleSystem &sys, os::Process &proc)
{
    Addr vaddr = invalidAddr, frame = invalidAddr;
    sys.kernel().pageTables().forEachLeaf(
        proc.ptRoot, [&](Addr va, cpu::Pte pte, Addr) {
            if (vaddr == invalidAddr && pte.present() &&
                pte.nvmBacked() && !pte.hsccRemapped()) {
                vaddr = va;
                frame = pte.frameAddr();
            }
        });
    return {vaddr, frame};
}

Addr
frameOf(KindleSystem &sys, os::Process &proc, Addr vaddr)
{
    Addr frame = invalidAddr;
    sys.kernel().pageTables().forEachLeaf(
        proc.ptRoot, [&](Addr va, cpu::Pte pte, Addr) {
            if (va == vaddr && pte.present())
                frame = pte.frameAddr();
        });
    return frame;
}

TEST(MediaFaultTest, ScrubberHealsDriftFaults)
{
    KindleConfig cfg = mediaConfig(persist::PtScheme::rebuild);
    // A transient single-bit fault planted far from any allocation.
    cfg.memory.media.faults.push_back(
        {/*frame=*/20000, /*line=*/3, /*bits=*/1, /*sticky=*/false});
    KindleSystem sys(cfg);
    mem::NvmMediaModel *media = sys.memory().media();
    ASSERT_NE(media, nullptr);
    ASSERT_TRUE(sys.scrubber()->running());

    const Addr line = sys.memory().nvmRange().start() +
                      20000 * pageSize + 3 * lineSize;
    ASSERT_EQ(media->health(line), mem::LineHealth::correctable);

    sys.kernel().spawn(longNvmWorkload(), "worker");
    sys.kernel().runUntil(sys.now() + 4 * scrubInterval);

    // The patrol rewrote the line; re-programming healed the drift.
    EXPECT_EQ(media->health(line), mem::LineHealth::clean);
    EXPECT_GE(sys.scrubber()->stats().scalarValue("scrubCorrected"), 1);
    EXPECT_GE(sys.scrubber()->stats().scalarValue("patrolPasses"), 1);
}

TEST(MediaFaultTest, UncorrectableFrameRetiredAndPageMigrated)
{
    KindleSystem sys(mediaConfig(persist::PtScheme::rebuild));
    sys.kernel().spawn(longNvmWorkload(), "victim");
    sys.kernel().runUntil(sys.now() + oneMs / 2);

    os::Process &proc = *sys.kernel().processes().front();
    const auto [vaddr, bad] = firstNvmMapping(sys, proc);
    ASSERT_NE(vaddr, invalidAddr);

    // A marker on line 0, then uncorrectable wear on line 5: ECC can
    // no longer hide the frame, but the marker's line is undamaged
    // and must survive the migration.
    const std::uint64_t marker = 0x6d656469616d6f76;  // "mediamov"
    sys.memory().writeDataDurable(bad, &marker, 8);
    sys.memory().media()->injectError(bad + 5 * lineSize, 2,
                                      /*sticky=*/true);

    sys.kernel().runUntil(sys.now() + 4 * scrubInterval);

    // The scrubber found it, the OS retired it, the page moved.
    EXPECT_GE(sys.scrubber()->stats().scalarValue("scrubUncorrectable"),
              1);
    EXPECT_TRUE(sys.kernel().badFrameTable().isRetired(bad));
    EXPECT_GE(sys.kernel().stats().scalarValue("nvmFramesRetired"), 1);
    EXPECT_GE(sys.kernel().stats().scalarValue("nvmPagesMigrated"), 1);
    const Addr repl = frameOf(sys, proc, vaddr);
    ASSERT_NE(repl, invalidAddr);
    EXPECT_NE(repl, bad);
    std::uint64_t copied = 0;
    sys.memory().readData(repl, &copied, 8);
    EXPECT_EQ(copied, marker);
    // The retired frame never comes back from the allocator.
    EXPECT_FALSE(sys.kernel().nvmAllocator().isAllocated(bad));
}

class MediaSchemeTest
    : public ::testing::TestWithParam<persist::PtScheme>
{};

TEST_P(MediaSchemeTest, BadFrameListSurvivesCrashAndReboot)
{
    KindleSystem sys(mediaConfig(GetParam()));
    sys.kernel().spawn(longNvmWorkload(), "worker");
    sys.kernel().runUntil(sys.now() + oneMs / 2);

    os::Process &proc = *sys.kernel().processes().front();
    const auto [vaddr, bad] = firstNvmMapping(sys, proc);
    ASSERT_NE(vaddr, invalidAddr);
    sys.kernel().retireNvmFrame(bad, "test");
    ASSERT_NE(frameOf(sys, proc, vaddr), bad);
    // Publish the migrated mapping before pulling the plug.
    sys.persistence()->checkpointNow();

    for (int boot = 0; boot < 2; ++boot) {
        sys.crash();
        const persist::RecoveryReport report = sys.reboot();
        ASSERT_EQ(report.processesRecovered, 1u) << "boot " << boot;
        EXPECT_GE(report.retiredFrames, 1u) << "boot " << boot;
        EXPECT_TRUE(sys.kernel().badFrameTable().isRetired(bad))
            << "boot " << boot;
        // No recovered leaf may point at the retired frame.
        os::Process &back = *sys.kernel().processes().back();
        sys.kernel().pageTables().forEachLeaf(
            back.ptRoot, [&, bad = bad](Addr, cpu::Pte pte, Addr) {
                if (pte.present()) {
                    EXPECT_NE(pte.frameAddr(), bad);
                }
            });
        sys.persistence()->checkpointNow();
    }
}

INSTANTIATE_TEST_SUITE_P(Schemes, MediaSchemeTest,
                         ::testing::Values(
                             persist::PtScheme::rebuild,
                             persist::PtScheme::persistent));

TEST(MediaFaultTest, MemoryMediaSurvivesAnArmedCrashPlan)
{
    // memory.media is the media model's one home: arming a crash plan
    // next to it must not replace the medium.
    KindleConfig cfg;
    cfg.memory.dramBytes = 128 * oneMiB;
    cfg.memory.nvmBytes = 128 * oneMiB;
    cfg.memory.media.writeEndurance = 1'000'000;
    cfg.fault = fault::FaultPlan{};
    cfg.fault->atNthDurableWrite = 1'000'000;
    KindleSystem sys(cfg);
    ASSERT_NE(sys.memory().media(), nullptr);
    EXPECT_NE(sys.scrubber(), nullptr);
}

TEST(MediaFaultTest, NvmExhaustionDegradesToDram)
{
    KindleConfig cfg = mediaConfig(persist::PtScheme::rebuild);
    // Reserve more frames than the pool holds: every MAP_NVM fault
    // must fall back to DRAM instead of eating the migration reserve.
    cfg.kernel.nvmReserveFrames = 1ull << 32;
    KindleSystem sys(cfg);

    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, 8 * pageSize, true);
    b.touchPages(micro::scriptBase, 8 * pageSize);
    b.readPages(micro::scriptBase, 8 * pageSize);
    b.exit();
    sys.run(b.build(), "degraded");

    EXPECT_EQ(sys.kernel().stats().scalarValue("nvmDegradedAllocs"), 8);
}

TEST(MediaFaultTest, RecoveryQuarantinesSlotOnRetiredFrame)
{
    KindleSystem sys(mediaConfig(persist::PtScheme::rebuild));
    sys.kernel().spawn(longNvmWorkload(), "doomed");
    sys.kernel().runUntil(sys.now() + oneMs / 2);
    sys.persistence()->checkpointNow();
    const unsigned slot = sys.kernel().processes().front()->slot;

    // The medium dies under the saved-state slot itself.  The frame is
    // metadata, not user-pool — retirement records the damage durably
    // and recovery must fence the slot off rather than trust it.
    sys.kernel().retireNvmFrame(sys.kernel().nvmLayout().slotAddr(slot),
                                "test");
    sys.crash();
    const persist::RecoveryReport report = sys.reboot();

    EXPECT_EQ(report.processesRecovered, 0u);
    EXPECT_EQ(report.processesQuarantined, 1u);
    ASSERT_FALSE(report.errors.empty());
    bool classified = false;
    for (const auto &err : report.errors) {
        if (err.code == persist::RecoveryErrorCode::retiredFrameDamage)
            classified = true;
    }
    EXPECT_TRUE(classified);
}

TEST(MediaFaultTest, ConcurrentMediaSweepsAreIndependent)
{
    // Several media-armed systems in flight at once — scrubber events,
    // retirement callbacks and injector routing must all stay
    // per-system (run under TSan by scripts/ci.sh).
    std::vector<runner::Scenario> scenarios;
    for (int i = 0; i < 4; ++i) {
        runner::Scenario sc;
        sc.name = "media_sweep_" + std::to_string(i);
        sc.config = mediaConfig(i % 2 == 0
                                    ? persist::PtScheme::rebuild
                                    : persist::PtScheme::persistent);
        sc.config.memory.media.bitFlipRate = 1e-3;
        sc.config.memory.media.seed = 100 + std::uint64_t(i);
        sc.drive = [](KindleSystem &sys,
                      statistics::StatSnapshot &) -> Tick {
            const Tick t0 = sys.now();
            sys.run(longNvmWorkload(8), "w");
            return sys.now() - t0;
        };
        scenarios.push_back(std::move(sc));
    }
    runner::SweepRunner pool(2);
    const auto results = pool.run(scenarios);
    ASSERT_EQ(results.size(), scenarios.size());
    for (const auto &r : results)
        EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
}

} // namespace
} // namespace kindle
