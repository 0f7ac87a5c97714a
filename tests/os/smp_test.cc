/**
 * @file
 * SMP kernel behavior: per-core runqueues (placement, pinning, work
 * stealing), cross-core TLB shootdowns (no stale translation survives
 * a remote page-table update, an munmap, or a frame retirement), and
 * the per-cpu / aggregate stat layout of a multi-core KindleSystem.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/str.hh"
#include "kindle/kindle.hh"
#include "kindle/microbench.hh"
#include "os/kernel.hh"

#include "../sim/callback_event.hh"
#include "exit_log.hh"

namespace kindle::os
{
namespace
{

/** An N-core kernel rig mirroring the uniprocessor kernel_test one. */
struct SmpRig
{
    explicit SmpRig(unsigned n, KernelParams kp = KernelParams{})
        : memory([] {
              mem::HybridMemoryParams p;
              p.dramBytes = 256 * oneMiB;
              p.nvmBytes = 256 * oneMiB;
              return p;
          }()),
          hier(cache::HierarchyParams{}, memory, n)
    {
        std::vector<cpu::Core *> ptrs;
        for (unsigned c = 0; c < n; ++c) {
            cores.push_back(std::make_unique<cpu::Core>(
                cpu::CoreParams{}, sim, memory, hier, c,
                "cpu" + std::to_string(c)));
            ptrs.push_back(cores.back().get());
        }
        kernel.emplace(kp, sim, memory, hier, ptrs);
    }

    cpu::Core &core(CpuId c) { return *cores.at(c); }

    sim::Simulation sim;
    mem::HybridMemory memory;
    cache::Hierarchy hier;
    std::vector<std::unique_ptr<cpu::Core>> cores;
    std::optional<Kernel> kernel;
};

/** ~@p slices scheduler quanta of compute, touching @p pages pages. */
std::unique_ptr<cpu::OpStream>
busyProgram(Addr base, unsigned slices, unsigned pages = 4)
{
    micro::ScriptBuilder b;
    b.mmapFixed(base, pages * pageSize, /*nvm=*/false);
    b.touchPages(base, pages * pageSize);
    for (unsigned s = 0; s < slices; ++s)
        b.compute(3'000'000);  // one ~1 ms default timeslice
    b.exit();
    return b.build();
}

std::unique_ptr<cpu::OpStream>
shortProgram(Addr base)
{
    micro::ScriptBuilder b;
    b.mmapFixed(base, pageSize, /*nvm=*/false);
    b.touchPages(base, pageSize);
    b.compute(1000);
    b.exit();
    return b.build();
}

// ---- Scheduler --------------------------------------------------

TEST(SmpSchedulerTest, PlacementSpreadsAcrossCores)
{
    SmpRig rig(2);
    test::ExitLog exits(*rig.kernel);
    const Pid a = rig.kernel->spawn(
        busyProgram(micro::scriptBase, 2), "a");
    const Pid b = rig.kernel->spawn(
        busyProgram(micro::scriptBase + oneGiB, 2), "b");
    rig.kernel->run();
    ASSERT_NE(exits.of(a), nullptr);
    ASSERT_NE(exits.of(b), nullptr);
    EXPECT_EQ(exits.of(a)->lastCpu, 0u);
    EXPECT_EQ(exits.of(b)->lastCpu, 1u);
    // Both cores retired instructions.
    EXPECT_GT(rig.core(0).stats().scalarValue("computeOps"), 0);
    EXPECT_GT(rig.core(1).stats().scalarValue("computeOps"), 0);
}

TEST(SmpSchedulerTest, PinnedProcessRunsOnlyOnItsCore)
{
    SmpRig rig(2);
    test::ExitLog exits(*rig.kernel);
    const Pid pid = rig.kernel->spawn(
        busyProgram(micro::scriptBase, 3), "pinned");
    rig.kernel->setAffinity(*rig.kernel->findProcess(pid), 1);
    rig.kernel->run();
    ASSERT_NE(exits.of(pid), nullptr);
    EXPECT_EQ(exits.of(pid)->lastCpu, 1u);
    EXPECT_EQ(rig.core(0).stats().scalarValue("computeOps"), 0);
    EXPECT_GT(rig.core(1).stats().scalarValue("computeOps"), 0);
    // Re-routing the initial placement counts as a migration.
    EXPECT_GE(rig.kernel->stats().scalarValue("migrations"), 1);
}

TEST(SmpSchedulerTest, IdleCoreStealsQueuedUnpinnedWork)
{
    // A and C land on core 0, short B on core 1.  When B exits, core
    // 1 must steal whichever of A/C is queued (not running) on core 0.
    SmpRig rig(2);
    rig.kernel->spawn(busyProgram(micro::scriptBase, 6), "a");
    rig.kernel->spawn(shortProgram(micro::scriptBase + oneGiB), "b");
    rig.kernel->spawn(
        busyProgram(micro::scriptBase + 2 * oneGiB, 6), "c");
    rig.kernel->run();
    EXPECT_GE(rig.kernel->stats().scalarValue("migrations"), 1);
    EXPECT_GT(rig.core(0).stats().scalarValue("computeOps"), 0);
    EXPECT_GT(rig.core(1).stats().scalarValue("computeOps"), 0);
}

TEST(SmpSchedulerTest, LoneProcessDoesNotPingPongBetweenCores)
{
    SmpRig rig(4);
    rig.kernel->spawn(busyProgram(micro::scriptBase, 8), "lone");
    rig.kernel->run();
    // The sole runnable process is its core's `running` occupant at
    // every slice boundary, so idle cores must not steal it.
    EXPECT_EQ(rig.kernel->stats().scalarValue("migrations"), 0);
    EXPECT_EQ(rig.core(1).stats().scalarValue("computeOps"), 0);
    EXPECT_EQ(rig.core(2).stats().scalarValue("computeOps"), 0);
    EXPECT_EQ(rig.core(3).stats().scalarValue("computeOps"), 0);
}

TEST(SmpSchedulerTest, RunqueuesTimeShareWithinOneCore)
{
    SmpRig rig(2);
    // Three busy processes on two cores: someone must time-share.
    for (unsigned i = 0; i < 3; ++i) {
        rig.kernel->spawn(
            busyProgram(micro::scriptBase + i * oneGiB, 4),
            csprintf("p{}", i));
    }
    rig.kernel->run();
    EXPECT_GE(rig.kernel->stats().scalarValue("contextSwitches"), 4);
    for (const auto &proc : rig.kernel->processes())
        EXPECT_EQ(proc->state, ProcState::zombie);
}

TEST(SmpSchedulerTest, ContextOfTracksResidencyAcrossCores)
{
    SmpRig rig(2);
    const Pid pid = rig.kernel->spawn(
        busyProgram(micro::scriptBase, 4), "p");
    Process &proc = *rig.kernel->findProcess(pid);
    // Before the first dispatch the saved context is authoritative.
    EXPECT_EQ(&rig.kernel->contextOf(proc), &proc.context);

    // Mid-slice (observed from an event serviced while the process
    // is executing) contextOf must read the live register file of
    // the core the process occupies, not the stale saved copy.
    const cpu::CpuState *mid_slice = nullptr;
    sim::CallbackEvent probe("probe", [&] {
        mid_slice = &rig.kernel->contextOf(proc);
        EXPECT_EQ(rig.kernel->runningOn(0), &proc);
    });
    rig.sim.eventq().schedule(&probe, rig.sim.now() + oneMs / 2);
    test::ExitLog exits(*rig.kernel);
    rig.kernel->run();
    EXPECT_EQ(mid_slice, &rig.core(0).state());
    // At exit the saved context is authoritative again; the PCB is
    // reaped after that.
    ASSERT_NE(exits.of(pid), nullptr);
    EXPECT_TRUE(exits.of(pid)->savedContext);
    EXPECT_EQ(rig.kernel->findProcess(pid), nullptr);
}

// ---- TLB shootdowns ---------------------------------------------

/** A shell process with @p pages mapped and both cores' TLBs warm. */
struct ShootdownRig : SmpRig
{
    ShootdownRig() : SmpRig(2)
    {
        proc = &kernel->spawnShell("victim", 0);
        va = kernel->sysMmap(*proc, 0, 4 * pageSize, 0);
        // Touch the pages from both cores so each private TLB holds
        // translations for the same page table.
        for (const CpuId c : {CpuId(0), CpuId(1)}) {
            core(c).setContext(proc->pid, proc->ptRoot);
            for (unsigned p = 0; p < 4; ++p)
                EXPECT_TRUE(core(c).memAccess(
                    true, va + p * pageSize, 8));
        }
    }

    bool
    translationCached(CpuId c, Addr vaddr)
    {
        Tick extra = 0;
        return core(c).tlb().lookup(proc->pid, cpu::vpnOf(vaddr),
                                    extra) != nullptr;
    }

    Process *proc = nullptr;
    Addr va = 0;
};

TEST(TlbShootdownTest, MunmapInvalidatesRemoteTlbs)
{
    ShootdownRig rig;
    ASSERT_TRUE(rig.translationCached(0, rig.va));
    ASSERT_TRUE(rig.translationCached(1, rig.va));
    rig.kernel->sysMunmap(*rig.proc, rig.va, 4 * pageSize);
    for (const CpuId c : {CpuId(0), CpuId(1)}) {
        for (unsigned p = 0; p < 4; ++p)
            EXPECT_FALSE(
                rig.translationCached(c, rig.va + p * pageSize));
    }
    EXPECT_GE(rig.kernel->stats().scalarValue("tlbShootdownsSent"),
              1);
    EXPECT_GE(rig.kernel->stats().scalarValue("tlbShootdownIpis"),
              1);
}

TEST(TlbShootdownTest, MprotectInvalidatesRemoteTlbs)
{
    ShootdownRig rig;
    rig.kernel->sysMprotect(*rig.proc, rig.va, 4 * pageSize,
                            /*writable=*/false);
    // A stale writable translation on either core would let the
    // process dodge the new protection.
    EXPECT_FALSE(rig.translationCached(0, rig.va));
    EXPECT_FALSE(rig.translationCached(1, rig.va));
}

TEST(TlbShootdownTest, ShootdownPageIsPageTargeted)
{
    ShootdownRig rig;
    rig.kernel->shootdownPage(rig.proc->pid, rig.va);
    EXPECT_FALSE(rig.translationCached(0, rig.va));
    EXPECT_FALSE(rig.translationCached(1, rig.va));
    // The neighbouring page's translation survives on both cores.
    EXPECT_TRUE(rig.translationCached(0, rig.va + pageSize));
    EXPECT_TRUE(rig.translationCached(1, rig.va + pageSize));
}

TEST(TlbShootdownTest, ShootdownFlushAllClearsEveryTlb)
{
    ShootdownRig rig;
    rig.kernel->shootdownFlushAll();
    for (unsigned p = 0; p < 4; ++p) {
        EXPECT_FALSE(
            rig.translationCached(0, rig.va + p * pageSize));
        EXPECT_FALSE(
            rig.translationCached(1, rig.va + p * pageSize));
    }
}

TEST(TlbShootdownTest, FrameRetirementShootsDownRemoteTlb)
{
    SmpRig rig(2);
    Process &proc = rig.kernel->spawnShell("victim", 0);
    const Addr va =
        rig.kernel->sysMmap(proc, 0, pageSize, cpu::mapNvm);
    for (const CpuId c : {CpuId(0), CpuId(1)}) {
        rig.core(c).setContext(proc.pid, proc.ptRoot);
        ASSERT_TRUE(rig.core(c).memAccess(true, va, 8));
    }
    const Addr frame =
        roundDown(rig.core(0).translate(va, false), pageSize);
    ASSERT_NE(frame, invalidAddr);

    rig.kernel->retireNvmFrame(frame, "test");
    Tick extra = 0;
    // The page was remapped to a fresh frame: any cached translation
    // on any core would keep reading the retired frame.
    EXPECT_EQ(rig.core(0).tlb().lookup(proc.pid, cpu::vpnOf(va),
                                       extra),
              nullptr);
    EXPECT_EQ(rig.core(1).tlb().lookup(proc.pid, cpu::vpnOf(va),
                                       extra),
              nullptr);
}

// ---- System-level stat layout -----------------------------------

TEST(SmpStatsTest, SingleCoreLayoutMatchesSeed)
{
    KindleConfig cfg;
    cfg.numCores = 1;
    KindleSystem sys(cfg);
    sys.kernel().spawn(micro::seqAllocTouch(8 * pageSize), "p");
    sys.runAll();
    const statistics::StatSnapshot snap = sys.snapshotStats();
    EXPECT_TRUE(snap.has("core.memOps"));
    EXPECT_FALSE(snap.has("cpu0.memOps"));
    // No directory, no SMP kernel counters on a uniprocessor.
    EXPECT_FALSE(snap.has("cacheHierarchy.coherence.invalidations"));
    EXPECT_FALSE(snap.has("kernel.migrations"));
    EXPECT_FALSE(snap.has("kernel.tlbShootdownsSent"));
}

TEST(SmpStatsTest, MultiCoreGroupsPerCpuWithAggregateRollup)
{
    KindleConfig cfg;
    cfg.numCores = 2;
    KindleSystem sys(cfg);
    sys.kernel().spawn(micro::seqAllocTouch(8 * pageSize), "a");
    sys.kernel().spawn(
        micro::seqAllocTouch(8 * pageSize, /*nvm=*/false), "b");
    sys.runAll();
    const statistics::StatSnapshot snap = sys.snapshotStats();
    ASSERT_TRUE(snap.has("cpu0.memOps"));
    ASSERT_TRUE(snap.has("cpu1.memOps"));
    ASSERT_TRUE(snap.has("core.memOps"));
    EXPECT_EQ(snap.get("core.memOps"),
              snap.get("cpu0.memOps") + snap.get("cpu1.memOps"));
    // Nested children roll up too.
    EXPECT_EQ(snap.get("core.tlb.l1Hits"),
              snap.get("cpu0.tlb.l1Hits") +
                  snap.get("cpu1.tlb.l1Hits"));
    // Only counters roll up: histograms do not sum across cores.
    EXPECT_TRUE(snap.has("cpu0.walkLatency::count"));
    EXPECT_FALSE(snap.has("core.walkLatency::count"));
    EXPECT_TRUE(snap.has("cacheHierarchy.coherence.invalidations"));
    EXPECT_TRUE(snap.has("kernel.migrations"));
    // Taking a snapshot does not feed the next one's rollup.
    EXPECT_TRUE(snap == sys.snapshotStats());
}

} // namespace
} // namespace kindle::os
