/**
 * @file
 * CPU-fault subsystem: seeded fail-stop / transient-stall core faults,
 * the IPI ack-timeout/retry protocol, watchdog detection, and
 * hotplug-style offlining — the workload must always complete on the
 * survivors.  Also covers the scheduler edge cases around a shrunken
 * scheduling set (broken pins, setAffinity to a dead core, lone
 * runnable, ipiLatency = 0) and the zero-cost contract (no core-fault
 * stats exist until a fault event actually happens).
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "default_tree.hh"
#include "kindle/kindle.hh"
#include "kindle/microbench.hh"
#include "os/kernel.hh"

namespace kindle::os
{
namespace
{

/** The smp_test rig, with a core-fault plan in the params. */
struct FaultRig
{
    explicit FaultRig(unsigned n, KernelParams kp = KernelParams{})
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

KernelParams
paramsWithFault(const fault::CoreFault &f)
{
    KernelParams kp;
    kp.coreFaults.faults.push_back(f);
    return kp;
}

fault::CoreFault
failStopAtTick(CpuId cpu, Tick at)
{
    fault::CoreFault f;
    f.cpu = cpu;
    f.atTick = at;
    return f;
}

fault::CoreFault
failStopAtIpi(CpuId cpu, std::uint64_t nth)
{
    fault::CoreFault f;
    f.cpu = cpu;
    f.atNthIpi = nth;
    return f;
}

fault::CoreFault
stallAtIpi(CpuId cpu, std::uint64_t nth, Tick ticks)
{
    fault::CoreFault f;
    f.cpu = cpu;
    f.atNthIpi = nth;
    f.stallTicks = ticks;
    return f;
}

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

/** A shootdown rig: pages of one process warm in every core's TLB. */
struct ShootdownRig : FaultRig
{
    explicit ShootdownRig(KernelParams kp = KernelParams{})
        : FaultRig(2, kp)
    {
        proc = &kernel->spawnShell("victim", 0);
        va = kernel->sysMmap(*proc, 0, 4 * pageSize, 0);
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

// ---- Watchdog + offlining ---------------------------------------

TEST(CoreFaultTest, WatchdogOfflinesFailStoppedCoreAndWorkCompletes)
{
    FaultRig rig(3, paramsWithFault(failStopAtTick(1, oneMs + 1)));
    for (unsigned i = 0; i < 3; ++i) {
        rig.kernel->spawn(
            busyProgram(micro::scriptBase + i * oneGiB, 4),
            "p" + std::to_string(i));
    }
    rig.kernel->run();
    EXPECT_FALSE(rig.kernel->coreOnline(1));
    EXPECT_TRUE(rig.kernel->coreOnline(0));
    EXPECT_TRUE(rig.kernel->coreOnline(2));
    EXPECT_EQ(rig.kernel->stats().scalarValue("coresOfflined"), 1);
    // run() returned: every process reached zombie, on survivors.
    for (const auto &proc : rig.kernel->processes())
        EXPECT_EQ(proc->state, ProcState::zombie);
    EXPECT_GT(rig.core(0).stats().scalarValue("computeOps"), 0);
}

TEST(CoreFaultTest, PinnedToDeadCoreBreaksPinAndCompletesElsewhere)
{
    FaultRig rig(2, paramsWithFault(failStopAtTick(1, 1)));
    const Pid pid = rig.kernel->spawn(
        busyProgram(micro::scriptBase, 3), "pinned");
    ASSERT_TRUE(
        rig.kernel->setAffinity(*rig.kernel->findProcess(pid), 1));
    rig.kernel->run();
    Process &proc = *rig.kernel->findProcess(pid);
    EXPECT_EQ(proc.state, ProcState::zombie);
    EXPECT_EQ(proc.pinnedCpu, -1);
    EXPECT_EQ(rig.kernel->stats().scalarValue("affinityBroken"), 1);
    EXPECT_EQ(rig.kernel->stats().scalarValue("coresOfflined"), 1);
    // All the work ran on the survivor.
    EXPECT_GT(rig.core(0).stats().scalarValue("computeOps"), 0);
    EXPECT_EQ(rig.core(1).stats().scalarValue("computeOps"), 0);
}

TEST(CoreFaultTest, SetAffinityToOfflinedCoreFailsCleanly)
{
    FaultRig rig(2, paramsWithFault(failStopAtTick(1, 1)));
    rig.kernel->spawn(busyProgram(micro::scriptBase, 1), "warm");
    rig.kernel->run();
    ASSERT_FALSE(rig.kernel->coreOnline(1));

    const Pid pid = rig.kernel->spawn(
        busyProgram(micro::scriptBase + oneGiB, 1), "late");
    Process &proc = *rig.kernel->findProcess(pid);
    EXPECT_FALSE(rig.kernel->setAffinity(proc, 1));
    EXPECT_EQ(proc.pinnedCpu, -1);  // the pin must not stick
    // Pinning to a live core still works, and the process runs.
    EXPECT_TRUE(rig.kernel->setAffinity(proc, 0));
    rig.kernel->run();
    EXPECT_EQ(proc.state, ProcState::zombie);
    EXPECT_EQ(proc.lastCpu, 0);
}

TEST(CoreFaultTest, MidSliceDeathKillsOccupantCrashConsistently)
{
    // The fault fires mid-slice: the occupant's live register state
    // died with the core, so the kernel must kill it rather than
    // resume from a stale saved context.
    FaultRig rig(2, paramsWithFault(failStopAtTick(1, oneMs / 2)));
    rig.kernel->spawn(busyProgram(micro::scriptBase, 4), "a");
    // Fine-grained ops so the fault tick lands *between* ops inside a
    // slice (state == running), not at a slice boundary where the
    // occupant has already parked in `ready` with a saved context.
    micro::ScriptBuilder fine;
    fine.mmapFixed(micro::scriptBase + oneGiB, 4 * pageSize, false);
    fine.touchPages(micro::scriptBase + oneGiB, 4 * pageSize);
    for (int i = 0; i < 400; ++i)
        fine.compute(30'000);
    fine.exit();
    const Pid victim = rig.kernel->spawn(fine.build(), "b");
    rig.kernel->setAffinity(*rig.kernel->findProcess(victim), 1);
    rig.kernel->run();
    EXPECT_FALSE(rig.kernel->coreOnline(1));
    EXPECT_EQ(rig.kernel->stats().scalarValue("coreLossKills"), 1);
    for (const auto &proc : rig.kernel->processes())
        EXPECT_EQ(proc->state, ProcState::zombie);
}

TEST(CoreFaultTest, LastOnlineCoreDeathIsFatal)
{
    KernelParams kp;
    kp.coreFaults.faults.push_back(failStopAtTick(0, 1));
    kp.coreFaults.faults.push_back(failStopAtTick(1, 1));
    FaultRig rig(2, kp);
    rig.kernel->spawn(busyProgram(micro::scriptBase, 1), "doomed");
    setErrorsThrow(true);
    EXPECT_THROW(rig.kernel->run(), SimError);
    setErrorsThrow(false);
}

TEST(CoreFaultTest, LoneRunnableSurvivesAnotherCoresDeath)
{
    // A dying core must not make the survivors start ping-ponging the
    // single runnable process around.
    FaultRig rig(4, paramsWithFault(failStopAtTick(2, oneMs + 1)));
    rig.kernel->spawn(busyProgram(micro::scriptBase, 6), "lone");
    rig.kernel->run();
    EXPECT_FALSE(rig.kernel->coreOnline(2));
    EXPECT_EQ(rig.kernel->stats().scalarValue("migrations"), 0);
    EXPECT_GT(rig.core(0).stats().scalarValue("computeOps"), 0);
}

// ---- IPI ack-timeout / retry ------------------------------------

TEST(CoreFaultTest, IpiFailStopTimesOutAndOfflinesTarget)
{
    ShootdownRig rig(paramsWithFault(failStopAtIpi(1, 1)));
    rig.kernel->sysMunmap(*rig.proc, rig.va, 4 * pageSize);
    // The target died on delivery: the initiator burned its full
    // resend budget, escalated, and the watchdog offlined the core.
    EXPECT_FALSE(rig.kernel->coreOnline(1));
    EXPECT_EQ(rig.kernel->stats().scalarValue("ipiTimeouts"), 1);
    EXPECT_EQ(rig.kernel->stats().scalarValue("ipiRetries"),
              KernelParams{}.ipiRetries);
    EXPECT_EQ(rig.kernel->stats().scalarValue("coresOfflined"), 1);
    // The dead core's TLB was flushed on the way out.
    EXPECT_FALSE(rig.translationCached(1, rig.va));
}

TEST(CoreFaultTest, TransientStallRetriesWithoutOffline)
{
    // 1.5 ack-timeouts: the first resend still finds the core
    // stalled, the budget is never exhausted — retry must succeed and
    // the core must stay online.
    ShootdownRig rig(paramsWithFault(
        stallAtIpi(1, 1, 3 * KernelParams{}.ipiAckTimeout / 2)));
    rig.kernel->sysMunmap(*rig.proc, rig.va, 4 * pageSize);
    EXPECT_TRUE(rig.kernel->coreOnline(1));
    EXPECT_GE(rig.kernel->stats().scalarValue("ipiRetries"), 1);
    // The shootdown completed once the stall lifted: no stale
    // translation survives anywhere.
    for (const CpuId c : {CpuId(0), CpuId(1)}) {
        for (unsigned p = 0; p < 4; ++p)
            EXPECT_FALSE(
                rig.translationCached(c, rig.va + p * pageSize));
    }
}

TEST(CoreFaultTest, ZeroIpiLatencyShootdownStillCompletes)
{
    // Degenerate timing: free IPI delivery must not break the ack
    // protocol, with or without a stall in the way.
    KernelParams kp = paramsWithFault(
        stallAtIpi(1, 1, KernelParams{}.ipiAckTimeout / 2));
    kp.ipiLatency = 0;
    ShootdownRig rig(kp);
    rig.kernel->sysMunmap(*rig.proc, rig.va, 4 * pageSize);
    EXPECT_TRUE(rig.kernel->coreOnline(1));
    for (const CpuId c : {CpuId(0), CpuId(1)}) {
        for (unsigned p = 0; p < 4; ++p)
            EXPECT_FALSE(
                rig.translationCached(c, rig.va + p * pageSize));
    }
}

// ---- Zero-cost contract -----------------------------------------

TEST(CoreFaultStatsTest, NoCoreFaultStatsWithoutAPlan)
{
    KindleConfig cfg;
    cfg.numCores = 2;
    KindleSystem sys(cfg);
    sys.kernel().spawn(micro::seqAllocTouch(8 * pageSize), "a");
    sys.kernel().spawn(
        micro::seqAllocTouch(8 * pageSize, /*nvm=*/false), "b");
    sys.runAll();
    const statistics::StatSnapshot snap = sys.snapshotStats();
    EXPECT_FALSE(snap.has("kernel.coresOfflined"));
    EXPECT_FALSE(snap.has("kernel.coreLossKills"));
    EXPECT_FALSE(snap.has("kernel.affinityBroken"));
    EXPECT_FALSE(snap.has("kernel.ipiRetries"));
    EXPECT_FALSE(snap.has("kernel.ipiTimeouts"));
}

TEST(CoreFaultStatsTest, DefaultFourCoreTreeIsZeroCost)
{
    test::expectZeroCostDefaultTree(4);
}

TEST(CoreFaultStatsTest, ConfigPlanFlowsThroughKindleSystem)
{
    KindleConfig cfg;
    cfg.numCores = 2;
    fault::CoreFaultPlan plan;
    plan.faults.push_back(failStopAtTick(1, oneMs / 2));
    cfg.coreFault = plan;
    KindleSystem sys(cfg);
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, 4 * pageSize, false);
    b.touchPages(micro::scriptBase, 4 * pageSize);
    for (int r = 0; r < 3; ++r)
        b.compute(3'000'000);
    b.exit();
    sys.run(b.build(), "p");
    const statistics::StatSnapshot snap = sys.snapshotStats();
    EXPECT_EQ(snap.get("kernel.coresOfflined"), 1.0);
    EXPECT_FALSE(sys.kernel().coreOnline(1));
}

} // namespace
} // namespace kindle::os
