/**
 * @file
 * Full-system crash/recovery scenarios: the validation the paper
 * describes in §V-A ("crashing and restarting the application multiple
 * times"), plus durability edge cases driven through the whole stack.
 */

#include <gtest/gtest.h>

#include "kindle/kindle.hh"
#include "kindle/microbench.hh"

namespace kindle
{
namespace
{

KindleConfig
persistConfig(persist::PtScheme scheme)
{
    KindleConfig cfg;
    cfg.memory.dramBytes = 256 * oneMiB;
    cfg.memory.nvmBytes = 512 * oneMiB;
    cfg.persistence = persist::PersistParams{scheme, oneMs};
    return cfg;
}

class SchemeParamTest
    : public ::testing::TestWithParam<persist::PtScheme>
{};

TEST_P(SchemeParamTest, CrashDuringRunRecoversConsistentProcess)
{
    KindleSystem sys(persistConfig(GetParam()));

    // A program long enough that several checkpoints land.
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, 128 * pageSize, true);
    b.touchPages(micro::scriptBase, 128 * pageSize);
    for (int i = 0; i < 200; ++i)
        b.compute(1000000);
    b.exit();
    sys.kernel().spawn(b.build(), "worker");
    // Run part of the way, then pull the plug.
    sys.kernel().runUntil(sys.now() + 20 * oneMs);
    ASSERT_GT(sys.persistence()->checkpointsTaken(), 0u);

    sys.crash();
    const auto report = sys.reboot();
    ASSERT_EQ(report.processesRecovered, 1u);

    os::Process *proc = sys.kernel().processes().front().get();
    EXPECT_TRUE(proc->restored);
    EXPECT_EQ(proc->aspace.mappedBytes(), 128 * pageSize);
    // Every restored mapping is walkable.
    std::uint64_t mapped = 0;
    sys.kernel().pageTables().forEachLeaf(
        proc->ptRoot, [&](Addr, cpu::Pte pte, Addr) {
            if (pte.nvmBacked())
                ++mapped;
        });
    EXPECT_GT(mapped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, SchemeParamTest,
                         ::testing::Values(
                             persist::PtScheme::rebuild,
                             persist::PtScheme::persistent));

TEST(CrashRecoveryTest, RepeatedCrashRestartCycles)
{
    // The paper's validation: crash and restart multiple times; each
    // reboot must land on a consistent image.
    KindleSystem sys(persistConfig(persist::PtScheme::rebuild));
    os::Process &proc = sys.kernel().spawnShell("survivor", 0);
    const Addr a =
        sys.kernel().sysMmap(proc, 0, 16 * pageSize, cpu::mapNvm);
    sys.core(0).setContext(proc.pid, proc.ptRoot);
    for (int i = 0; i < 16; ++i) {
        const Addr f = sys.kernel().nvmAllocator().alloc();
        sys.kernel().pageTables().map(proc.ptRoot,
                                      a + Addr(i) * pageSize, f,
                                      true, true);
    }
    proc.context.rip = 0x77;
    sys.persistence()->checkpointNow();

    for (int cycle = 0; cycle < 4; ++cycle) {
        sys.crash();
        const auto report = sys.reboot();
        ASSERT_EQ(report.processesRecovered, 1u) << cycle;
        os::Process *back = sys.kernel().processes().back().get();
        ASSERT_EQ(back->context.rip, 0x77u) << cycle;
        ASSERT_EQ(back->aspace.mappedBytes(), 16 * pageSize) << cycle;
        // Checkpoint again so the next cycle has fresh state to find.
        sys.persistence()->checkpointNow();
    }
}

TEST(CrashRecoveryTest, UnflushedCacheLinesDieWithTheCrash)
{
    KindleSystem sys(persistConfig(persist::PtScheme::rebuild));
    const Addr nvm = sys.memory().nvmRange().start() + 100 * oneMiB;
    // A volatile (cached, un-flushed) NVM store...
    sys.memory().writeT<std::uint64_t>(nvm, 0xbad);
    sys.caches().access(mem::MemCmd::write, nvm, 8, sys.now());
    // ...a properly flushed *and* drained (fenced) one...
    const Addr nvm3 = nvm + 2 * pageSize;
    sys.memory().writeT<std::uint64_t>(nvm3, 0x600d);
    sys.caches().access(mem::MemCmd::write, nvm3, 8, sys.now());
    sys.caches().clwb(nvm3, sys.now());
    sys.memory().drainWrites(
        sys.memory().nvmCtrl().writesDrainedAt());
    // ...and one flushed but not fenced: still queued in the
    // controller write buffer when the power fails.
    const Addr nvm2 = nvm + pageSize;
    sys.memory().writeT<std::uint64_t>(nvm2, 0xbadb0f);
    sys.caches().access(mem::MemCmd::write, nvm2, 8, sys.now());
    sys.caches().clwb(nvm2, sys.now());

    sys.crash();
    sys.reboot();
    EXPECT_EQ(sys.memory().readT<std::uint64_t>(nvm), 0u);
    EXPECT_EQ(sys.memory().readT<std::uint64_t>(nvm2), 0u);
    EXPECT_EQ(sys.memory().readT<std::uint64_t>(nvm3), 0x600du);
    EXPECT_EQ(sys.lastCrashOutcome().linesLost, 1u);
}

TEST(CrashRecoveryTest, RecoveredProcessCanResumeExecution)
{
    KindleSystem sys(persistConfig(persist::PtScheme::persistent));
    os::Process &proc = sys.kernel().spawnShell("resume", 0);
    const Addr a =
        sys.kernel().sysMmap(proc, 0, 8 * pageSize, cpu::mapNvm);
    sys.persistence()->checkpointNow();
    sys.crash();
    sys.reboot();

    // Attach a fresh program to the recovered shell and run: the
    // restored address space must serve its accesses.
    os::Process *back = sys.kernel().processes().front().get();
    micro::ScriptBuilder b;
    b.touchPages(a, 8 * pageSize);
    b.exit();
    back->program = b.build();
    sys.kernel().makeReady(*back);
    const Pid pid = back->pid;
    sys.runAll();
    // It exited: reaped, or a zombie until the next epoch.
    const os::Process *after = sys.kernel().findProcess(pid);
    EXPECT_TRUE(!after || after->state == os::ProcState::zombie);
}

TEST(CrashRecoveryTest, CrashWithoutPersistenceLosesEverything)
{
    KindleConfig cfg;
    cfg.memory.dramBytes = 128 * oneMiB;
    cfg.memory.nvmBytes = 128 * oneMiB;
    KindleSystem sys(cfg);
    sys.kernel().spawnShell("doomed", 0);
    sys.crash();
    sys.reboot();
    EXPECT_TRUE(sys.kernel().processes().empty());
}

TEST(CrashRecoveryTest, RebootContinuesTheTimeline)
{
    KindleSystem sys(persistConfig(persist::PtScheme::rebuild));
    sys.kernel().spawnShell("p", 0);
    sys.persistence()->checkpointNow();
    const Tick before = sys.now();
    sys.crash();
    sys.reboot();
    EXPECT_GE(sys.now(), before);
}

} // namespace
} // namespace kindle
