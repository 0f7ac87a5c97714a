/**
 * @file
 * Kernel memory-pressure behaviour: zone caps, watermark reclaim,
 * injected allocation failures with retry/backoff, ENOMEM, and the
 * OOM killer's victim policy.
 */

#include <gtest/gtest.h>

#include "default_tree.hh"
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
          kernel(kp, sim, memory, hier, core)
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
    // normal completion — no ENOMEM ever surfaced.
    EXPECT_EQ(rig.kernel.findProcess(sleeper)->state,
              ProcState::zombie);
    EXPECT_EQ(rig.kernel.findProcess(toucher)->state,
              ProcState::zombie);
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
    // Certain failure: every attempt (initial + maxRetries) is
    // refused, so a single fault burns exactly maxRetries backoffs
    // and surfaces ENOMEM with memory to spare.
    KernelParams kp = pressured(0, 0, 1.0, /*oom=*/false);
    kp.pressure.maxRetries = 3;
    Rig rig(kp);
    micro::ScriptBuilder b;
    b.mmapFixed(toucherBase, pageSize, false);
    b.write(toucherBase);
    const Pid pid = rig.kernel.spawn(b.build(), "doomed");
    rig.kernel.run();

    EXPECT_EQ(rig.kernel.findProcess(pid)->state, ProcState::zombie);
    EXPECT_EQ(rig.kernel.stats().scalarValue("allocFailuresInjected"),
              4);
    EXPECT_EQ(rig.kernel.stats().scalarValue("allocRetries"), 3);
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
    micro::ScriptBuilder b;
    b.mmapFixed(toucherBase, 8 * pageSize, false);
    b.touchPages(toucherBase, 8 * pageSize);
    b.munmap(toucherBase, 4 * pageSize);
    b.compute(1);
    const Pid pid = rig.kernel.spawn(b.build(), "counted");
    rig.kernel.run();
    EXPECT_EQ(rig.kernel.findProcess(pid)->residentPages, 0u);
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
    kp.reapZombies = true;
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

} // namespace
} // namespace kindle::os
