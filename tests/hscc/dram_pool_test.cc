#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "base/random.hh"
#include "hscc/dram_pool.hh"

namespace kindle::hscc
{
namespace
{

struct Rig
{
    Rig()
        : memory([] {
              mem::HybridMemoryParams p;
              p.dramBytes = 64 * oneMiB;
              p.nvmBytes = 64 * oneMiB;
              return p;
          }()),
          hier(cache::HierarchyParams{}, memory),
          kmem(sim, memory, hier),
          alloc("dram", AddrRange(oneMiB, 32 * oneMiB), kmem)
    {}

    sim::Simulation sim;
    mem::HybridMemory memory;
    cache::Hierarchy hier;
    os::KernelMem kmem;
    os::FrameAllocator alloc;
};

TEST(DramPoolTest, StartsAllFree)
{
    Rig rig;
    DramPool pool(8, rig.alloc);
    EXPECT_EQ(pool.size(), 8u);
    EXPECT_EQ(pool.count(PoolState::free), 8u);
    EXPECT_EQ(pool.count(PoolState::clean), 0u);
    EXPECT_EQ(pool.count(PoolState::dirty), 0u);
    EXPECT_EQ(rig.alloc.allocatedFrames(), 8u);
}

TEST(DramPoolTest, SelectPrefersFree)
{
    Rig rig;
    DramPool pool(4, rig.alloc);
    const Selection sel = pool.select();
    EXPECT_EQ(sel.displacedNvm, invalidAddr);
    EXPECT_FALSE(sel.needsCopyBack);
    EXPECT_NE(sel.dramFrame, invalidAddr);
}

TEST(DramPoolTest, BindMakesClean)
{
    Rig rig;
    DramPool pool(4, rig.alloc);
    const Selection sel = pool.select();
    pool.bind(sel.index, 0x123000, {});
    pool.refreshLists();
    EXPECT_EQ(pool.count(PoolState::clean), 1u);
    EXPECT_EQ(pool.count(PoolState::free), 3u);
    ASSERT_NE(pool.entryFor(0x123000), nullptr);
    EXPECT_EQ(pool.entryFor(0x123000)->dramFrame, sel.dramFrame);
}

TEST(DramPoolTest, ExhaustedPoolDisplacesCleanFirst)
{
    Rig rig;
    DramPool pool(2, rig.alloc);
    for (int i = 0; i < 2; ++i) {
        const auto s = pool.select();
        pool.bind(s.index, 0x100000 + Addr(i) * pageSize, {});
    }
    pool.markDirty(0x100000);  // slot 0 dirty, slot 1 clean
    pool.refreshLists();

    const auto s = pool.select();
    EXPECT_EQ(s.displacedNvm, 0x101000u);  // the clean one
    EXPECT_FALSE(s.needsCopyBack);
}

TEST(DramPoolTest, DirtyDisplacementNeedsCopyBack)
{
    Rig rig;
    DramPool pool(1, rig.alloc);
    const auto s0 = pool.select();
    pool.bind(s0.index, 0x200000, {});
    pool.markDirty(0x200000);
    pool.refreshLists();

    const auto s1 = pool.select();
    EXPECT_EQ(s1.displacedNvm, 0x200000u);
    EXPECT_TRUE(s1.needsCopyBack);
    EXPECT_EQ(pool.stats().scalarValue("selDirty"), 1);
}

TEST(DramPoolTest, ReleaseFreesSlot)
{
    Rig rig;
    DramPool pool(2, rig.alloc);
    const auto s = pool.select();
    pool.bind(s.index, 0x300000, {});
    pool.release(0x300000);
    EXPECT_EQ(pool.count(PoolState::free), 2u);
    EXPECT_EQ(pool.entryFor(0x300000), nullptr);
}

TEST(DramPoolTest, MarkDirtyUnknownHomeIsNoop)
{
    Rig rig;
    DramPool pool(2, rig.alloc);
    pool.markDirty(0xdead000);
    pool.refreshLists();
    EXPECT_EQ(pool.count(PoolState::dirty), 0u);
}

TEST(DramPoolTest, RefreshRebuildsAfterStateChanges)
{
    Rig rig;
    DramPool pool(3, rig.alloc);
    for (int i = 0; i < 3; ++i) {
        const auto s = pool.select();
        pool.bind(s.index, 0x400000 + Addr(i) * pageSize, {});
    }
    pool.markDirty(0x400000);
    pool.markDirty(0x401000);
    pool.refreshLists();
    EXPECT_EQ(pool.count(PoolState::dirty), 2u);
    EXPECT_EQ(pool.count(PoolState::clean), 1u);
    EXPECT_EQ(pool.count(PoolState::free), 0u);
}

TEST(DramPoolTest, GaugesMatchARecountUnderSeededChurn)
{
    Rig rig;
    DramPool pool(16, rig.alloc);
    Random rng(5);
    std::vector<Addr> homes;
    Addr next_home = 0x800000;
    for (int op = 0; op < 4000; ++op) {
        const unsigned kind = static_cast<unsigned>(rng.uniform(100));
        if (kind < 45) {
            const Selection sel = pool.select();
            if (sel.displacedNvm != invalidAddr) {
                homes.erase(std::find(homes.begin(), homes.end(),
                                      sel.displacedNvm));
            }
            pool.bind(sel.index, next_home, {});
            homes.push_back(next_home);
            next_home += pageSize;
        } else if (!homes.empty() && kind < 80) {
            pool.markDirty(homes[rng.uniform(homes.size())]);
        } else if (!homes.empty() && kind < 90) {
            const std::size_t i = rng.uniform(homes.size());
            pool.release(homes[i]);
            homes.erase(homes.begin() + static_cast<long>(i));
        } else {
            pool.refreshLists();
        }

        unsigned counts[3] = {0, 0, 0};
        for (const PoolEntry &e : pool.allEntries())
            ++counts[static_cast<unsigned>(e.state)];
        const auto &st = pool.stats();
        ASSERT_EQ(st.gaugeValue("freePages"), counts[0]) << "op " << op;
        ASSERT_EQ(st.gaugeValue("cleanPages"), counts[1]) << "op " << op;
        ASSERT_EQ(st.gaugeValue("dirtyPages"), counts[2]) << "op " << op;
    }
}

} // namespace
} // namespace kindle::hscc
