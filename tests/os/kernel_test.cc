#include <gtest/gtest.h>

#include <vector>

#include "kindle/microbench.hh"
#include "os/kernel.hh"

namespace kindle::os
{
namespace
{

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

TEST(KernelTest, SpawnAssignsPidsAndSlots)
{
    Rig rig;
    const Pid p1 = rig.kernel.spawn(micro::seqAllocTouch(pageSize),
                                    "one");
    const Pid p2 = rig.kernel.spawn(micro::seqAllocTouch(pageSize),
                                    "two");
    EXPECT_EQ(p1, 1u);
    EXPECT_EQ(p2, 2u);
    EXPECT_NE(rig.kernel.findProcess(p1)->slot,
              rig.kernel.findProcess(p2)->slot);
}

TEST(KernelTest, MmapCreatesTaggedVma)
{
    Rig rig;
    Process &proc = rig.kernel.spawnShell("shell", 0);
    const Addr a =
        rig.kernel.sysMmap(proc, 0, 8 * pageSize, cpu::mapNvm);
    const Vma *vma = proc.aspace.find(a);
    ASSERT_NE(vma, nullptr);
    EXPECT_TRUE(vma->nvm);
    const Addr d = rig.kernel.sysMmap(proc, 0, 8 * pageSize, 0);
    EXPECT_FALSE(proc.aspace.find(d)->nvm);
}

TEST(KernelTest, DemandPagingAllocatesFromTaggedZone)
{
    Rig rig;
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, 4 * pageSize, /*nvm=*/true);
    b.touchPages(micro::scriptBase, 4 * pageSize);
    rig.kernel.spawn(b.build(), "nvm-toucher");
    rig.kernel.run();
    // Data frames from the NVM zone; DRAM only holds page tables.
    EXPECT_EQ(rig.kernel.nvmAllocator().stats().scalarValue("allocs"),
              4);
    EXPECT_EQ(
        rig.kernel.dramAllocator().stats().scalarValue("allocs"),
        rig.kernel.pageTables().stats().scalarValue("tablePages"));
}

TEST(KernelTest, MunmapReleasesFramesAndPtes)
{
    Rig rig;
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, 16 * pageSize, true);
    b.touchPages(micro::scriptBase, 16 * pageSize);
    b.munmap(micro::scriptBase, 16 * pageSize);
    // Program idles afterwards so we can inspect mid-flight state:
    b.compute(1);
    rig.kernel.spawn(b.build(), "churn");
    rig.kernel.run();
    EXPECT_EQ(rig.kernel.nvmAllocator().allocatedFrames(), 0u);
}

TEST(KernelTest, PartialMunmapKeepsRemainder)
{
    Rig rig;
    Process &proc = rig.kernel.spawnShell("s", 0);
    const Addr a =
        rig.kernel.sysMmap(proc, 0, 4 * pageSize, cpu::mapNvm);
    rig.kernel.sysMunmap(proc, a + pageSize, pageSize);
    EXPECT_NE(proc.aspace.find(a), nullptr);
    EXPECT_EQ(proc.aspace.find(a + pageSize), nullptr);
    EXPECT_NE(proc.aspace.find(a + 2 * pageSize), nullptr);
}

TEST(KernelTest, SegfaultKillsProcess)
{
    Rig rig;
    micro::ScriptBuilder b;
    b.write(0xdeadbeef000);  // no VMA
    b.compute(100);          // never reached
    const Pid pid = rig.kernel.spawn(b.build(), "crasher");
    rig.kernel.run();
    // Killed, then reaped at the next epoch.
    EXPECT_EQ(rig.kernel.findProcess(pid), nullptr);
    EXPECT_EQ(rig.core.stats().scalarValue("computeOps"), 0);
}

TEST(KernelTest, WriteToReadOnlyVmaFaults)
{
    Rig rig;
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, pageSize, false);
    b.mprotect(micro::scriptBase, pageSize, cpu::protRead);
    b.write(micro::scriptBase);
    const Pid pid = rig.kernel.spawn(b.build(), "ro-writer");
    rig.kernel.run();
    EXPECT_EQ(rig.kernel.findProcess(pid), nullptr);
    EXPECT_GE(rig.core.stats().scalarValue("illegalAccesses"), 1);
}

TEST(KernelTest, MremapGrowInPlace)
{
    Rig rig;
    Process &proc = rig.kernel.spawnShell("s", 0);
    const Addr a =
        rig.kernel.sysMmap(proc, 0, 2 * pageSize, cpu::mapNvm);
    const Addr b =
        rig.kernel.sysMremap(proc, a, 2 * pageSize, 6 * pageSize);
    EXPECT_EQ(a, b);
    EXPECT_EQ(proc.aspace.find(a)->range.size(), 6 * pageSize);
}

TEST(KernelTest, MremapShrinkFreesTail)
{
    Rig rig;
    Process &proc = rig.kernel.spawnShell("s", 0);
    const Addr a =
        rig.kernel.sysMmap(proc, 0, 4 * pageSize, cpu::mapNvm);
    rig.kernel.sysMremap(proc, a, 4 * pageSize, 2 * pageSize);
    EXPECT_EQ(proc.aspace.find(a)->range.size(), 2 * pageSize);
    EXPECT_EQ(proc.aspace.find(a + 3 * pageSize), nullptr);
}

TEST(KernelTest, MremapMoveRelocatesFrames)
{
    Rig rig;
    Process &proc = rig.kernel.spawnShell("s", 0);
    const Addr a =
        rig.kernel.sysMmap(proc, 0, 2 * pageSize, cpu::mapNvm);
    // Block in-place growth.
    const Addr blocker = rig.kernel.sysMmap(
        proc, a + 2 * pageSize, pageSize, cpu::mapFixed);
    EXPECT_EQ(blocker, a + 2 * pageSize);
    // Materialize a frame to verify it travels.
    rig.kernel.core(0).setContext(proc.pid, proc.ptRoot);
    Process *saved_current = rig.kernel.currentProcess();
    (void)saved_current;
    // Map manually through the fault path.
    const cpu::Pte before = [&] {
        const Addr frame = rig.kernel.nvmAllocator().alloc();
        rig.kernel.pageTables().map(proc.ptRoot, a, frame, true,
                                    true);
        return rig.kernel.pageTables().readLeaf(proc.ptRoot, a);
    }();

    const Addr moved =
        rig.kernel.sysMremap(proc, a, 2 * pageSize, 4 * pageSize);
    EXPECT_NE(moved, a);
    const auto leaf = rig.kernel.pageTables().readLeaf(proc.ptRoot,
                                                       moved);
    EXPECT_TRUE(leaf.present());
    EXPECT_EQ(leaf.frameAddr(), before.frameAddr());
    EXPECT_FALSE(
        rig.kernel.pageTables().readLeaf(proc.ptRoot, a).present());
}

TEST(KernelTest, MremapOpGrowsAndShrinksThroughDispatch)
{
    // The op carries the new length in pages in its flags field.
    struct Spy : OsEventListener
    {
        void
        onVmaAdded(Process &, const Vma &vma) override
        {
            added.push_back(vma.range);
        }
        void
        onVmaRemoved(Process &, const Vma &vma) override
        {
            removed.push_back(vma.range);
        }
        std::vector<AddrRange> added;
        std::vector<AddrRange> removed;
    } spy;

    Rig rig;
    rig.kernel.addListener(&spy);
    const Addr base = micro::scriptBase;
    micro::ScriptBuilder b;
    b.mmapFixed(base, 2 * pageSize, true);
    b.touchPages(base, 2 * pageSize);
    b.mremap(base, 2 * pageSize, 6 * pageSize);
    b.touchPages(base + 2 * pageSize, 4 * pageSize);
    b.mremap(base, 6 * pageSize, 3 * pageSize);
    b.write(base + 2 * pageSize);
    b.write(base + 3 * pageSize);  // the dropped tail: a segfault
    b.compute(100);                // never reached
    rig.kernel.spawn(b.build(), "remapper");
    rig.kernel.run();

    // Grown in place to six pages, then the three-page tail went.
    ASSERT_GE(spy.added.size(), 2u);
    EXPECT_EQ(spy.added[1], AddrRange::withSize(base, 6 * pageSize));
    ASSERT_GE(spy.removed.size(), 2u);
    EXPECT_EQ(spy.removed[1],
              AddrRange(base + 3 * pageSize, base + 6 * pageSize));
    // Every write inside the mapping succeeded; the one past it did
    // not.
    EXPECT_EQ(rig.core.stats().scalarValue("illegalAccesses"), 1);
    EXPECT_EQ(rig.kernel.stats().scalarValue("syscalls"), 3);
}

TEST(KernelTest, RoundRobinAlternatesProcesses)
{
    Rig rig;
    auto spin = [](int rounds) {
        micro::ScriptBuilder b;
        b.mmapFixed(micro::scriptBase, pageSize, false);
        for (int i = 0; i < rounds; ++i)
            b.compute(10000);
        b.exit();
        return b.build();
    };
    rig.kernel.spawn(spin(2000), "a");
    rig.kernel.spawn(spin(2000), "b");
    rig.kernel.run();
    // Both ran to completion and the scheduler actually interleaved.
    EXPECT_GT(rig.kernel.stats().scalarValue("contextSwitches"), 2);
}

TEST(KernelTest, ExitReleasesEverything)
{
    Rig rig;
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, 8 * pageSize, true);
    b.touchPages(micro::scriptBase, 8 * pageSize);
    b.exit();  // no explicit munmap
    rig.kernel.spawn(b.build(), "leaky");
    rig.kernel.run();
    EXPECT_EQ(rig.kernel.nvmAllocator().allocatedFrames(), 0u);
    // Page-table frames released too.
    EXPECT_EQ(rig.kernel.dramAllocator().allocatedFrames(), 0u);
}

TEST(KernelTest, ListenersObserveLifecycle)
{
    struct Spy : OsEventListener
    {
        void onProcessCreated(Process &) override { ++created; }
        void onProcessExit(Process &) override { ++exited; }
        void
        onVmaAdded(Process &, const Vma &) override
        {
            ++vmas;
        }
        void
        onFrameMapped(Process &, Addr, Addr, bool nvm) override
        {
            frames += nvm ? 1 : 0;
        }
        int created = 0;
        int exited = 0;
        int vmas = 0;
        int frames = 0;
    } spy;

    Rig rig;
    rig.kernel.addListener(&spy);
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, 2 * pageSize, true);
    b.touchPages(micro::scriptBase, 2 * pageSize);
    b.exit();
    rig.kernel.spawn(b.build(), "observed");
    rig.kernel.run();
    EXPECT_EQ(spy.created, 1);
    EXPECT_EQ(spy.exited, 1);
    EXPECT_EQ(spy.vmas, 1);
    EXPECT_EQ(spy.frames, 2);
}

TEST(KernelTest, PtInNvmPlacesTablesInNvmZone)
{
    KernelParams kp;
    kp.ptInNvm = true;
    Rig rig(kp);
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, pageSize, false);  // DRAM data
    b.touchPages(micro::scriptBase, pageSize);
    b.exit();
    rig.kernel.spawn(b.build(), "nvmpt");
    rig.kernel.run();
    // Table frames came from the NVM allocator even though the data
    // page was DRAM.
    EXPECT_GT(rig.kernel.nvmAllocator().stats().scalarValue("allocs"),
              0);
}

} // namespace
} // namespace kindle::os
