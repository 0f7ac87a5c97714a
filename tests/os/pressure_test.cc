/**
 * @file
 * Kernel memory-pressure behaviour: zone caps, watermark reclaim,
 * injected allocation failures with retry/backoff, ENOMEM, and the
 * OOM killer's victim policy.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "default_tree.hh"
#include "exit_log.hh"
#include "kindle/microbench.hh"
#include "os/kernel.hh"
#include "os/reclaim.hh"

namespace kindle::os
{
namespace
{

constexpr Addr sleeperBase = micro::scriptBase;
constexpr Addr toucherBase = micro::scriptBase + Addr(0x2000) * pageSize;

struct Rig
{
    explicit Rig(KernelParams kp = KernelParams{})
        : memory([] {
              mem::HybridMemoryParams p;
              p.dramBytes = 256 * oneMiB;
              p.nvmBytes = 256 * oneMiB;
              return p;
          }()),
          hier(cache::HierarchyParams{}, memory),
          core(cpu::CoreParams{}, sim, memory, hier),
          kernel(kp, sim, memory, hier, {&core})
    {}

    sim::Simulation sim;
    mem::HybridMemory memory;
    cache::Hierarchy hier;
    cpu::Core core;
    Kernel kernel;
};

KernelParams
pressured(std::uint64_t dram_frames, std::uint64_t nvm_frames,
          double fail_rate = 0.0, bool oom = true)
{
    KernelParams kp;
    // Interleave finely so the sleeper is genuinely off-core (and
    // therefore a reclaim victim) while the toucher allocates.
    kp.timeslice = 50 * oneUs;
    kp.pressure.dramZoneFrames = dram_frames;
    kp.pressure.nvmZoneFrames = nvm_frames;
    kp.pressure.allocFailRate = fail_rate;
    kp.pressure.oomEnabled = oom;
    return kp;
}

/** A big-RSS process that touches @p pages DRAM pages up front and
 *  then sits in compute long enough to outlive the toucher. */
std::unique_ptr<cpu::OpStream>
makeSleeper(unsigned pages)
{
    micro::ScriptBuilder b;
    b.mmapFixed(sleeperBase, pages * pageSize, false);
    b.touchPages(sleeperBase, pages * pageSize);
    // Many small compute ops, not one big one: preemption happens
    // between ops, and the sleeper must actually time-share with the
    // toucher to be an off-core reclaim victim.
    for (int r = 0; r < 40; ++r)
        b.compute(250000);
    b.exit();
    return b.build();
}

/** A process that maps and touches @p pages DRAM pages in rounds,
 *  driving the allocator into the zone cap. */
std::unique_ptr<cpu::OpStream>
makeToucher(unsigned pages)
{
    micro::ScriptBuilder b;
    for (unsigned done = 0; done < pages; done += 16) {
        const unsigned chunk = std::min(16u, pages - done);
        b.mmapFixed(toucherBase + Addr(done) * pageSize,
                    chunk * pageSize, false);
        b.touchPages(toucherBase + Addr(done) * pageSize,
                     chunk * pageSize);
        b.compute(100000);
    }
    b.exit();
    return b.build();
}

TEST(PressureTest, ZoneCapsAndWatermarksApply)
{
    Rig rig(pressured(64, 32));
    EXPECT_EQ(rig.kernel.dramAllocator().totalFrames(), 64u);
    EXPECT_EQ(rig.kernel.nvmAllocator().totalFrames(), 32u);
    // Derived watermarks: low = max(8, frames/16), high = 2*low.
    EXPECT_EQ(rig.kernel.dramAllocator().lowWatermark(), 8u);
    EXPECT_EQ(rig.kernel.dramAllocator().highWatermark(), 16u);
    ASSERT_NE(rig.kernel.reclaimEngine(), nullptr);
}

TEST(PressureTest, UnpressuredKernelHasNoPressureMachinery)
{
    Rig rig;
    EXPECT_EQ(rig.kernel.reclaimEngine(), nullptr);
    EXPECT_EQ(rig.kernel.dramAllocator().lowWatermark(), 0u);
    EXPECT_FALSE(
        rig.kernel.stats().hasScalar("enomemFaults"));
    EXPECT_FALSE(rig.kernel.stats().hasScalar("oomKills"));
}

TEST(PressureTest, DefaultSingleCoreTreeIsZeroCost)
{
    test::expectZeroCostDefaultTree(1);
}

TEST(PressureTest, KernelPlanAloneArmsTheSystemPressureChain)
{
    // kernel.pressure is the plan's one home: set there alone, it
    // still turns on write-buffer stall tracking on both controllers
    // and, with persistence, redo-log backpressure.
    KindleConfig cfg;
    cfg.memory.dramBytes = 128 * oneMiB;
    cfg.memory.nvmBytes = 128 * oneMiB;
    cfg.persistence = persist::PersistParams{};
    cfg.kernel.pressure.nvmZoneFrames = 1024;
    KindleSystem sys(cfg);
    EXPECT_TRUE(
        sys.memory().dramCtrl().stats().hasScalar("writeStalls"));
    EXPECT_TRUE(
        sys.memory().nvmCtrl().stats().hasScalar("writeStalls"));
    ASSERT_NE(sys.persistence(), nullptr);
    EXPECT_TRUE(
        sys.persistence()->stats().hasScalar("earlyCheckpoints"));
}

TEST(PressureTest, ReclaimDemotesOffCoreColdPages)
{
    // NVM left roomy: demotion alone must absorb the overcommit.
    Rig rig(pressured(64, 0));
    rig.kernel.spawn(makeSleeper(24), "sleeper");
    rig.kernel.spawn(makeToucher(48), "toucher");
    rig.kernel.run();

    const auto &reclaim = rig.kernel.reclaimEngine()->stats();
    EXPECT_GT(reclaim.scalarValue("pagesDemoted"), 0);
    // Demoted pages land in the NVM zone even though neither process
    // ever asked for MAP_NVM.
    EXPECT_GT(
        rig.kernel.nvmAllocator().stats().scalarValue("allocs"), 0);
    // Relief was enough: nobody was killed.
    EXPECT_FALSE(rig.kernel.stats().hasScalar("oomKills"));
    EXPECT_FALSE(rig.kernel.stats().hasScalar("enomemFaults"));
}

TEST(PressureTest, OomKillsLargestRssAndSparesRequester)
{
    // NVM capped tightly: demotion stalls against the retirement
    // reserve, so relief must come from the OOM killer.
    Rig rig(pressured(64, 16));
    const Pid sleeper =
        rig.kernel.spawn(makeSleeper(32), "sleeper");
    // Sized so the combined demand needs the kill, but the survivor
    // fits once the sleeper's frames return to the pool.
    const Pid toucher =
        rig.kernel.spawn(makeToucher(48), "toucher");
    rig.kernel.run();

    EXPECT_EQ(rig.kernel.stats().scalarValue("oomKills"), 1);
    EXPECT_GE(rig.kernel.stats().scalarValue("oomPagesFreed"), 24);
    // The sleeper (largest RSS, off-core) died; the requester ran to
    // normal completion — no ENOMEM ever surfaced.  Both are reaped.
    EXPECT_EQ(rig.kernel.findProcess(sleeper), nullptr);
    EXPECT_EQ(rig.kernel.findProcess(toucher), nullptr);
    EXPECT_FALSE(rig.kernel.stats().hasScalar("enomemFaults"));
}

TEST(PressureTest, EnomemKillsRequesterWhenOomDisabled)
{
    Rig rig(pressured(64, 16, 0.0, /*oom=*/false));
    rig.kernel.spawn(makeSleeper(32), "sleeper");
    rig.kernel.spawn(makeToucher(72), "toucher");
    rig.kernel.run();

    // No victim search: the allocation fails with ENOMEM and the
    // faulting process is killed — the machine itself survives.
    EXPECT_FALSE(rig.kernel.stats().hasScalar("oomKills"));
    EXPECT_GE(rig.kernel.stats().scalarValue("enomemFaults"), 1);
}

TEST(PressureTest, InjectedFailuresExhaustRetriesDeterministically)
{
    // Certain failure: every attempt (initial + allocMaxRetries) is
    // refused, so a single fault burns exactly allocMaxRetries
    // backoffs and surfaces ENOMEM with memory to spare.
    Rig rig(pressured(0, 0, 1.0, /*oom=*/false));
    micro::ScriptBuilder b;
    b.mmapFixed(toucherBase, pageSize, false);
    b.write(toucherBase);
    const Pid pid = rig.kernel.spawn(b.build(), "doomed");
    rig.kernel.run();

    EXPECT_EQ(rig.kernel.findProcess(pid), nullptr);
    EXPECT_EQ(rig.kernel.stats().scalarValue("allocFailuresInjected"),
              1 + Kernel::allocMaxRetries);
    EXPECT_EQ(rig.kernel.stats().scalarValue("allocRetries"),
              Kernel::allocMaxRetries);
    EXPECT_EQ(rig.kernel.stats().scalarValue("enomemFaults"), 1);
    // Plenty of frames were free the whole time.
    EXPECT_GT(rig.kernel.dramAllocator().freeFrames(), 0u);
}

TEST(PressureTest, PinnedProcessesAreExemptFromOom)
{
    Rig rig(pressured(64, 16));
    const Pid fat = rig.kernel.spawn(makeSleeper(32), "fat");
    rig.kernel.spawn(makeSleeper(12), "lean");
    rig.kernel.setAffinity(*rig.kernel.findProcess(fat), 0);
    rig.kernel.spawn(makeToucher(72), "toucher");
    rig.kernel.run();

    // The fat process would be the natural victim, but pinning
    // exempts it: the killer falls back to the lean sleeper.
    EXPECT_GE(rig.kernel.stats().scalarValue("oomKills"), 1);
    EXPECT_LE(rig.kernel.stats().scalarValue("oomPagesFreed"), 20);
}

TEST(PressureTest, ResidentPagesTracksMapAndUnmap)
{
    Rig rig(pressured(0, 0));  // pressure off: plain accounting
    test::ExitLog exits(rig.kernel);
    micro::ScriptBuilder b;
    b.mmapFixed(toucherBase, 8 * pageSize, false);
    b.touchPages(toucherBase, 8 * pageSize);
    b.munmap(toucherBase, 4 * pageSize);
    b.compute(1);
    const Pid pid = rig.kernel.spawn(b.build(), "counted");
    rig.kernel.run();
    EXPECT_EQ(rig.kernel.findProcess(pid), nullptr);
    ASSERT_NE(exits.of(pid), nullptr);
    EXPECT_EQ(exits.of(pid)->residentPages, 0u);
}

TEST(PressureTest, ResidentPagesPeaksWhileMapped)
{
    Rig rig;
    micro::ScriptBuilder b;
    b.mmapFixed(toucherBase, 8 * pageSize, false);
    b.touchPages(toucherBase, 8 * pageSize);
    for (int r = 0; r < 100; ++r)  // hold the mapping; we stop
        b.compute(500000);         // mid-flight between ops
    b.exit();
    const Pid pid = rig.kernel.spawn(b.build(), "resident");
    rig.kernel.runUntil(rig.sim.now() + 5 * oneMs);
    EXPECT_EQ(rig.kernel.findProcess(pid)->residentPages, 8u);
}

TEST(PressureTest, LiveProcessCountMatchesScanAcrossExitOomAndReap)
{
    // liveProcessCount() is a counter; it must agree with a scan of
    // the process table through normal exit, an external kill (twice:
    // the second is a no-op), an OOM kill, and zombie reaping.
    KernelParams kp = pressured(64, 16);
    Rig rig(kp);
    auto scanned = [&] {
        unsigned n = 0;
        for (const auto &p : rig.kernel.processes())
            n += p->state != ProcState::zombie ? 1 : 0;
        return n;
    };
    rig.kernel.spawn(makeSleeper(32), "sleeper");
    rig.kernel.spawn(makeToucher(48), "toucher");
    const Pid victim = rig.kernel.spawn(makeSleeper(4), "victim");
    micro::ScriptBuilder quick;
    quick.compute(1000);
    quick.exit();
    rig.kernel.spawn(quick.build(), "quick");
    EXPECT_EQ(rig.kernel.liveProcessCount(), 4u);

    bool saw_zombie = false;
    bool saw_reap = false;
    std::size_t table = rig.kernel.processes().size();
    for (int step = 0; step < 100000 && rig.kernel.liveProcessCount() > 0;
         ++step) {
        rig.kernel.runUntil(rig.sim.now() + 20 * oneUs);
        if (step == 3) {
            Process &p = *rig.kernel.findProcess(victim);
            rig.kernel.exitProcess(p);
            rig.kernel.exitProcess(p);
        }
        ASSERT_EQ(rig.kernel.liveProcessCount(), scanned());
        saw_zombie |= rig.kernel.processes().size() >
                      rig.kernel.liveProcessCount();
        saw_reap |= rig.kernel.processes().size() < table;
        table = rig.kernel.processes().size();
    }
    EXPECT_EQ(rig.kernel.liveProcessCount(), 0u);
    ASSERT_TRUE(rig.kernel.stats().hasScalar("oomKills"));
    EXPECT_GE(rig.kernel.stats().scalarValue("oomKills"), 1);
    EXPECT_TRUE(saw_zombie);
    EXPECT_TRUE(saw_reap);
}

TEST(PressureTest, ProcessTableStaysInPidOrderThroughChurnAndReap)
{
    // processes() is in strictly ascending pid order: reclaim's
    // round-robin walk and the checkpoint sweep rely on it.  Churn it
    // with spawns between epochs, normal exits, an external kill, an
    // OOM kill and zombie reaping.
    KernelParams kp = pressured(64, 16);
    Rig rig(kp);
    auto ascending = [&] {
        const auto &procs = rig.kernel.processes();
        for (std::size_t i = 1; i < procs.size(); ++i) {
            if (procs[i - 1]->pid >= procs[i]->pid)
                return false;
        }
        return true;
    };
    auto quick = [] {
        micro::ScriptBuilder b;
        b.compute(1000).exit();
        return b.build();
    };
    rig.kernel.spawn(makeSleeper(32), "sleeper");
    rig.kernel.spawn(makeToucher(48), "toucher");
    const Pid victim = rig.kernel.spawn(makeSleeper(4), "victim");

    bool saw_reap = false;
    std::size_t table = rig.kernel.processes().size();
    for (int step = 0; step < 100000 && rig.kernel.liveProcessCount() > 0;
         ++step) {
        rig.kernel.runUntil(rig.sim.now() + 20 * oneUs);
        if (step == 3)
            rig.kernel.exitProcess(*rig.kernel.findProcess(victim));
        if (step < 40 && step % 4 == 0)
            rig.kernel.spawn(quick(), "quick");
        ASSERT_TRUE(ascending()) << "step " << step;
        saw_reap |= rig.kernel.processes().size() < table;
        table = rig.kernel.processes().size();
    }
    EXPECT_EQ(rig.kernel.liveProcessCount(), 0u);
    ASSERT_TRUE(rig.kernel.stats().hasScalar("oomKills"));
    EXPECT_GE(rig.kernel.stats().scalarValue("oomKills"), 1);
    EXPECT_TRUE(saw_reap);
}

/**
 * findProcess() against a linear scan of the process table through
 * spawns between epochs, normal exits, an external kill, an OOM kill
 * and reaping, on @p cores cores: a pid is found exactly while its PCB
 * is in the table, and a reaped pid never comes back.
 */
void
findProcessTracksTheTable(unsigned cores)
{
    KindleConfig cfg;
    cfg.memory.dramBytes = 256 * oneMiB;
    cfg.memory.nvmBytes = 256 * oneMiB;
    cfg.numCores = cores;
    cfg.kernel = pressured(64, 16);
    KindleSystem sys(cfg);
    Kernel &kernel = sys.kernel();
    auto quick = [] {
        micro::ScriptBuilder b;
        b.compute(1000).exit();
        return b.build();
    };
    auto scan = [&](Pid pid) -> Process * {
        for (const auto &p : kernel.processes())
            if (p->pid == pid)
                return p.get();
        return nullptr;
    };
    std::vector<Pid> pids;
    pids.push_back(kernel.spawn(makeSleeper(32), "sleeper"));
    pids.push_back(kernel.spawn(makeToucher(48), "toucher"));
    const Pid victim = kernel.spawn(makeSleeper(4), "victim");
    pids.push_back(victim);
    std::vector<bool> reaped(pids.size());

    const auto check = [&] {
        EXPECT_EQ(kernel.findProcess(0), nullptr);
        EXPECT_EQ(kernel.findProcess(pids.back() + 1), nullptr);
        for (std::size_t i = 0; i < pids.size(); ++i) {
            Process *found = kernel.findProcess(pids[i]);
            ASSERT_EQ(found, scan(pids[i])) << "pid " << pids[i];
            ASSERT_FALSE(reaped[i] && found) << "pid " << pids[i];
            reaped[i] = found == nullptr;
        }
    };
    for (int step = 0; step < 100000 && kernel.liveProcessCount() > 0;
         ++step) {
        kernel.runUntil(sys.simulation().now() + 20 * oneUs);
        if (step == 3) {
            if (Process *p = kernel.findProcess(victim))
                kernel.exitProcess(*p);
        }
        if (step < 40 && step % 4 == 0) {
            pids.push_back(kernel.spawn(quick(), "quick"));
            reaped.push_back(false);
        }
        check();
        if (testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_EQ(kernel.liveProcessCount(), 0u);
    ASSERT_TRUE(kernel.stats().hasScalar("oomKills"));
    EXPECT_GE(kernel.stats().scalarValue("oomKills"), 1);
    EXPECT_GT(std::count(reaped.begin(), reaped.end(), true), 0);
    // One more epoch reaps the last exits: no pid is left to find.
    kernel.runUntil(sys.simulation().now() + 20 * oneUs);
    check();
    EXPECT_TRUE(kernel.processes().empty());
    for (const Pid pid : pids)
        EXPECT_EQ(kernel.findProcess(pid), nullptr) << "pid " << pid;
}

TEST(PressureTest, FindProcessTracksTheTableThroughChurnOneCore)
{
    findProcessTracksTheTable(1);
}

TEST(PressureTest, FindProcessTracksTheTableThroughChurnFourCores)
{
    findProcessTracksTheTable(4);
}

} // namespace
} // namespace kindle::os
