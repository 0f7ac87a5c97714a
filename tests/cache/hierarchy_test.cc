#include <gtest/gtest.h>

#include "cache/hierarchy.hh"

namespace kindle::cache
{
namespace
{

mem::HybridMemoryParams
smallMem()
{
    mem::HybridMemoryParams p;
    p.dramBytes = 64 * oneMiB;
    p.nvmBytes = 64 * oneMiB;
    return p;
}

struct Rig
{
    Rig() : memory(smallMem()), hier(HierarchyParams{}, memory) {}

    mem::HybridMemory memory;
    Hierarchy hier;
};

TEST(HierarchyTest, MissFillsAllLevels)
{
    Rig rig;
    rig.hier.access(mem::MemCmd::read, 0x10000, 8, 0);
    EXPECT_TRUE(rig.hier.l1().contains(0x10000));
    EXPECT_TRUE(rig.hier.l2().contains(0x10000));
    EXPECT_TRUE(rig.hier.llc().contains(0x10000));
}

TEST(HierarchyTest, HitLatencyOrdering)
{
    Rig rig;
    const Tick miss =
        rig.hier.access(mem::MemCmd::read, 0x10000, 8, 0).latency;
    const Tick l1_hit =
        rig.hier.access(mem::MemCmd::read, 0x10000, 8, 0).latency;
    EXPECT_GT(miss, 10 * l1_hit);
}

TEST(HierarchyTest, LlcMissFlagOnlyOnMemoryAccess)
{
    Rig rig;
    const auto first =
        rig.hier.access(mem::MemCmd::read, 0x20000, 8, 0);
    EXPECT_TRUE(first.llcMiss);
    const auto second =
        rig.hier.access(mem::MemCmd::read, 0x20000, 8, 0);
    EXPECT_FALSE(second.llcMiss);
}

TEST(HierarchyTest, MultiLineAccessTouchesEveryLine)
{
    Rig rig;
    rig.hier.access(mem::MemCmd::read, 0x30000, 256, 0);
    for (Addr a = 0x30000; a < 0x30000 + 256; a += lineSize)
        EXPECT_TRUE(rig.hier.l1().contains(a));
}

TEST(HierarchyTest, AccessStraddlingLineBoundary)
{
    Rig rig;
    // 8 bytes starting 4 bytes before a line boundary: two lines.
    rig.hier.access(mem::MemCmd::read, 0x10000 + 60, 8, 0);
    EXPECT_TRUE(rig.hier.l1().contains(0x10000));
    EXPECT_TRUE(rig.hier.l1().contains(0x10040));
}

TEST(HierarchyTest, ClwbMakesNvmLineDurable)
{
    Rig rig;
    const Addr nvm = rig.memory.nvmRange().start() + 0x1000;
    rig.memory.writeT<std::uint64_t>(nvm, 42);     // volatile overlay
    rig.hier.access(mem::MemCmd::write, nvm, 8, 0);  // dirty in cache
    EXPECT_EQ(rig.memory.nvmPendingLines(), 1u);

    rig.hier.clwb(nvm, 0);
    EXPECT_EQ(rig.memory.nvmPendingLines(), 0u);
    // The flushed line sits in the controller buffer until the device
    // drain completes; a fence (or time) makes it durable.
    rig.memory.drainWrites(rig.memory.nvmCtrl().writesDrainedAt());
    std::uint64_t v = 0;
    rig.memory.readNvmDurable(nvm, &v, 8);
    EXPECT_EQ(v, 42u);
    // clwb keeps the line cached (clean).
    EXPECT_TRUE(rig.hier.l1().contains(nvm));
    EXPECT_FALSE(rig.hier.l1().isDirty(nvm));
}

TEST(HierarchyTest, ClflushInvalidatesEverywhere)
{
    Rig rig;
    rig.hier.access(mem::MemCmd::write, 0x40000, 8, 0);
    rig.hier.clflush(0x40000, 0);
    EXPECT_FALSE(rig.hier.l1().contains(0x40000));
    EXPECT_FALSE(rig.hier.l2().contains(0x40000));
    EXPECT_FALSE(rig.hier.llc().contains(0x40000));
}

TEST(HierarchyTest, DirtyLineOnlyInL1StillReachesMemoryOnClwb)
{
    Rig rig;
    const Addr nvm = rig.memory.nvmRange().start() + 0x2000;
    rig.memory.writeT<std::uint64_t>(nvm, 7);
    rig.hier.access(mem::MemCmd::write, nvm, 8, 0);
    // Dirty copy lives in L1 (L2/LLC hold clean fill copies); the
    // chained flush must push the newest copy to the device.
    rig.hier.clwb(nvm, 0);
    rig.memory.drainWrites(rig.memory.nvmCtrl().writesDrainedAt());
    std::uint64_t v = 0;
    rig.memory.readNvmDurable(nvm, &v, 8);
    EXPECT_EQ(v, 7u);
}

TEST(HierarchyTest, LlcEvictionCommitsNvmWriteback)
{
    Rig rig;
    const Addr nvm_base = rig.memory.nvmRange().start();
    rig.memory.writeT<std::uint64_t>(nvm_base, 11);
    rig.hier.access(mem::MemCmd::write, nvm_base, 8, 0);
    EXPECT_EQ(rig.memory.nvmPendingLines(), 1u);

    // Thrash the LLC with >2 MiB of distinct lines so the dirty NVM
    // line is eventually written back to the device.
    for (Addr a = 0; a < 8 * oneMiB; a += lineSize)
        rig.hier.access(mem::MemCmd::read, a + oneMiB, 8, 0);
    EXPECT_EQ(rig.memory.nvmPendingLines(), 0u);
}

TEST(HierarchyTest, FlushAllDrainsEverything)
{
    Rig rig;
    const Addr nvm = rig.memory.nvmRange().start();
    for (int i = 0; i < 64; ++i) {
        rig.memory.writeT<std::uint64_t>(nvm + i * lineSize, i);
        rig.hier.access(mem::MemCmd::write, nvm + i * lineSize, 8, 0);
    }
    rig.hier.flushAll(0);
    EXPECT_EQ(rig.memory.nvmPendingLines(), 0u);
}

TEST(HierarchyTest, InvalidateAllLosesDirtyData)
{
    Rig rig;
    const Addr nvm = rig.memory.nvmRange().start() + 0x3000;
    rig.memory.writeT<std::uint64_t>(nvm, 9);
    rig.hier.access(mem::MemCmd::write, nvm, 8, 0);
    rig.hier.invalidateAll();  // power loss
    EXPECT_EQ(rig.memory.nvmPendingLines(), 1u);  // still pending
    rig.memory.drainWrites(maxTick);
    rig.memory.crash(0, {});
    std::uint64_t v = 1;
    rig.memory.readNvmDurable(nvm, &v, 8);
    EXPECT_EQ(v, 0u);  // the store never became durable
}

TEST(HierarchyTest, SfenceHasFixedCost)
{
    Rig rig;
    EXPECT_EQ(rig.hier.sfence(0), 30 * oneNs);
}

TEST(HierarchyTest, DefaultGeometryMatchesPaper)
{
    const HierarchyParams p;
    EXPECT_EQ(p.l1.sizeBytes, 32 * oneKiB);
    EXPECT_EQ(p.l2.sizeBytes, 512 * oneKiB);
    EXPECT_EQ(p.llc.sizeBytes, 2 * oneMiB);
}

} // namespace
} // namespace kindle::cache
