#include <gtest/gtest.h>

#include "kindle/kindle.hh"
#include "kindle/microbench.hh"

namespace kindle::persist
{
namespace
{

KindleConfig
configWith(PtScheme scheme)
{
    KindleConfig cfg;
    cfg.memory.dramBytes = 256 * oneMiB;
    cfg.memory.nvmBytes = 512 * oneMiB;
    cfg.persistence = PersistParams{scheme, oneMs};
    return cfg;
}

/** Map pages, checkpoint, crash — common setup. */
struct CrashRig
{
    explicit CrashRig(PtScheme scheme)
        : sys(configWith(scheme))
    {
        os::Process &proc = sys.kernel().spawnShell("victim", 0);
        pid = proc.pid;
        const Addr a = sys.kernel().sysMmap(
            proc, 0, 32 * pageSize, cpu::mapNvm);
        vaddr = a;
        // Fault pages in by hand (no program attached).
        sys.core(0).setContext(proc.pid, proc.ptRoot);
        for (unsigned i = 0; i < 32; ++i) {
            const Addr frame = sys.kernel().nvmAllocator().alloc();
            sys.kernel().pageTables().map(proc.ptRoot,
                                          a + i * pageSize, frame,
                                          true, true);
            frames.push_back(frame);
        }
        proc.context.rip = 0x4242;
        proc.context.gpr[7] = 1234;
        sys.persistence()->checkpointNow();
    }

    KindleSystem sys;
    Pid pid = 0;
    Addr vaddr = 0;
    std::vector<Addr> frames;
};

TEST(RecoveryTest, RebuildSchemeRestoresProcess)
{
    CrashRig rig(PtScheme::rebuild);
    rig.sys.crash();
    const RecoveryReport report = rig.sys.reboot();

    EXPECT_EQ(report.processesRecovered, 1u);
    EXPECT_EQ(report.mappingsRestored, 32u);

    os::Process *proc = rig.sys.kernel().findProcess(1);
    ASSERT_NE(proc, nullptr);
    EXPECT_TRUE(proc->restored);
    EXPECT_EQ(proc->context.rip, 0x4242u);
    EXPECT_EQ(proc->context.gpr[7], 1234u);
    EXPECT_EQ(proc->aspace.mappedBytes(), 32 * pageSize);

    // The rebuilt page table reproduces the exact frame mapping.
    for (unsigned i = 0; i < 32; ++i) {
        const auto leaf = rig.sys.kernel().pageTables().readLeaf(
            proc->ptRoot, rig.vaddr + i * pageSize);
        ASSERT_TRUE(leaf.present()) << i;
        EXPECT_EQ(leaf.frameAddr(), rig.frames[i]) << i;
        EXPECT_TRUE(leaf.nvmBacked());
    }
}

TEST(RecoveryTest, PersistentSchemeAdoptsNvmPageTable)
{
    CrashRig rig(PtScheme::persistent);
    rig.sys.crash();
    const RecoveryReport report = rig.sys.reboot();

    EXPECT_EQ(report.processesRecovered, 1u);
    EXPECT_EQ(report.mappingsRestored, 0u);  // nothing to rebuild

    os::Process *proc = rig.sys.kernel().findProcess(1);
    ASSERT_NE(proc, nullptr);
    for (unsigned i = 0; i < 32; ++i) {
        const auto leaf = rig.sys.kernel().pageTables().readLeaf(
            proc->ptRoot, rig.vaddr + i * pageSize);
        ASSERT_TRUE(leaf.present()) << i;
        EXPECT_EQ(leaf.frameAddr(), rig.frames[i]) << i;
    }
}

TEST(RecoveryTest, AllocatorStateSurvives)
{
    CrashRig rig(PtScheme::rebuild);
    rig.sys.crash();
    rig.sys.reboot();
    // All 32 data frames are still accounted as allocated.
    for (const Addr f : rig.frames)
        EXPECT_TRUE(rig.sys.kernel().nvmAllocator().isAllocated(f));
}

TEST(RecoveryTest, PostCheckpointAllocationsAreReclaimed)
{
    CrashRig rig(PtScheme::rebuild);
    // Allocate frames AFTER the checkpoint: reachable from nothing.
    std::vector<Addr> leaked;
    for (int i = 0; i < 5; ++i)
        leaked.push_back(rig.sys.kernel().nvmAllocator().alloc());

    rig.sys.crash();
    const RecoveryReport report = rig.sys.reboot();
    EXPECT_GE(report.framesReclaimed, 5u);
    for (const Addr f : leaked)
        EXPECT_FALSE(rig.sys.kernel().nvmAllocator().isAllocated(f));
}

TEST(RecoveryTest, ChangesAfterLastCheckpointAreLost)
{
    CrashRig rig(PtScheme::rebuild);
    // Mutate after the checkpoint; no further checkpoint runs.
    os::Process *proc = rig.sys.kernel().findProcess(rig.pid);
    proc->context.rip = 0x9999;
    rig.sys.kernel().sysMmap(*proc, 0, 8 * pageSize, cpu::mapNvm);

    rig.sys.crash();
    rig.sys.reboot();
    os::Process *back = rig.sys.kernel().findProcess(1);
    EXPECT_EQ(back->context.rip, 0x4242u);  // pre-crash consistent
    EXPECT_EQ(back->aspace.mappedBytes(), 32 * pageSize);
}

TEST(RecoveryTest, ExitedProcessIsNotResurrected)
{
    KindleSystem sys(configWith(PtScheme::rebuild));
    sys.run(micro::seqAllocTouch(16 * pageSize), "gone");
    sys.crash();
    const auto report = sys.reboot();
    EXPECT_EQ(report.processesRecovered, 0u);
}

os::Process *
rigFind(KindleSystem &sys, const std::string &name)
{
    for (const auto &p : sys.kernel().processes())
        if (p->name == name)
            return p.get();
    return nullptr;
}

TEST(RecoveryTest, MultipleProcessesRecoverIndependently)
{
    KindleSystem sys(configWith(PtScheme::rebuild));
    for (int p = 0; p < 3; ++p) {
        os::Process &proc = sys.kernel().spawnShell(
            "proc" + std::to_string(p), unsigned(p));
        const Addr a = sys.kernel().sysMmap(
            proc, 0, (p + 1) * 4 * pageSize, cpu::mapNvm);
        sys.core(0).setContext(proc.pid, proc.ptRoot);
        for (int i = 0; i < (p + 1) * 4; ++i) {
            const Addr frame = sys.kernel().nvmAllocator().alloc();
            sys.kernel().pageTables().map(
                proc.ptRoot, a + Addr(i) * pageSize, frame, true,
                true);
        }
        proc.context.rip = 0x1000 + p;
    }
    sys.persistence()->checkpointNow();
    sys.crash();
    const auto report = sys.reboot();
    EXPECT_EQ(report.processesRecovered, 3u);
    EXPECT_EQ(report.mappingsRestored, 4u + 8u + 12u);
    for (int p = 0; p < 3; ++p) {
        os::Process *proc =
            rigFind(sys, "proc" + std::to_string(p));
        ASSERT_NE(proc, nullptr);
        EXPECT_EQ(proc->context.rip, 0x1000u + p);
    }
}

TEST(RecoveryTest, RecoveredProcessTableIsInPidOrder)
{
    // Slots handed out against pid order, one process exited before
    // the checkpoint: recovery must still leave processes() in
    // strictly ascending pid order, and so must a spawn after it.
    KindleSystem sys(configWith(PtScheme::rebuild));
    const unsigned slots[] = {3, 1, 2, 0};
    std::vector<os::Process *> spawned;
    for (const unsigned slot : slots) {
        os::Process &proc = sys.kernel().spawnShell(
            "proc" + std::to_string(slot), slot);
        const Addr a =
            sys.kernel().sysMmap(proc, 0, pageSize, cpu::mapNvm);
        sys.kernel().pageTables().map(proc.ptRoot, a,
                                      sys.kernel().nvmAllocator().alloc(),
                                      true, true);
        spawned.push_back(&proc);
    }
    sys.kernel().exitProcess(*spawned[1]);
    sys.persistence()->checkpointNow();
    sys.crash();
    const auto report = sys.reboot();
    EXPECT_EQ(report.processesRecovered, 3u);

    micro::ScriptBuilder b;
    b.compute(10).exit();
    sys.kernel().spawn(b.build(), "after");
    const auto &procs = sys.kernel().processes();
    ASSERT_EQ(procs.size(), 4u);
    for (std::size_t i = 1; i < procs.size(); ++i)
        EXPECT_LT(procs[i - 1]->pid, procs[i]->pid) << i;
}

TEST(RecoveryTest, RecoveryChargesSimulatedTime)
{
    CrashRig rig(PtScheme::rebuild);
    rig.sys.crash();
    const auto report = rig.sys.reboot();
    EXPECT_GT(report.recoveryTicks, 0u);
}

TEST(RecoveryTest, ContextClaimingTooManyVmasIsQuarantined)
{
    CrashRig rig(PtScheme::rebuild);
    os::Kernel &kernel = rig.sys.kernel();
    const unsigned slot = kernel.findProcess(rig.pid)->slot;
    SavedStateSlot probe(kernel.kmem(), kernel.nvmLayout(), slot);
    const SlotHeader hdr = probe.readHeader();
    // The consistent copy sits 256 or 8192 bytes into the slot.
    const Addr count_at =
        kernel.nvmLayout().slotAddr(slot) +
        (hdr.consistentIdx ? 8192 : 256) +
        offsetof(SavedStateSlot::ContextImage, vmaCount);
    rig.sys.crash();

    const std::uint32_t over = maxVmasPerContext + 1;
    rig.sys.memory().writeDataDurable(count_at, &over, sizeof(over));
    const RecoveryReport report = rig.sys.reboot();
    EXPECT_EQ(report.processesRecovered, 0u);
    EXPECT_EQ(report.processesQuarantined, 1u);
    ASSERT_EQ(report.errors.size(), 1u);
    EXPECT_EQ(report.errors[0].code, RecoveryErrorCode::contextBadCount);
    EXPECT_EQ(report.errors[0].slot, slot);
    EXPECT_EQ(report.errors[0].detail, "context claims 97 VMAs");
}

} // namespace
} // namespace kindle::persist
