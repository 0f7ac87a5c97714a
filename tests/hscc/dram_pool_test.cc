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
    const PoolEntry &e = pool.allEntries()[sel.index];
    EXPECT_EQ(e.nvmHome, 0x123000u);
    EXPECT_EQ(e.dramFrame, sel.dramFrame);
    EXPECT_EQ(pool.slotOf(sel.dramFrame), sel.index);
}

TEST(DramPoolTest, ExhaustedPoolDisplacesCleanFirst)
{
    Rig rig;
    DramPool pool(2, rig.alloc);
    unsigned slots[2];
    for (int i = 0; i < 2; ++i) {
        const auto s = pool.select();
        pool.bind(s.index, 0x100000 + Addr(i) * pageSize, {});
        slots[i] = s.index;
    }
    pool.markDirty(slots[0]);  // first bound dirty, second clean
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
    pool.markDirty(s0.index);
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
    pool.release(s.index);
    EXPECT_EQ(pool.count(PoolState::free), 2u);
    EXPECT_EQ(pool.allEntries()[s.index].nvmHome, invalidAddr);

    // Releasing a free slot again changes nothing.
    pool.release(s.index);
    EXPECT_EQ(pool.count(PoolState::free), 2u);
    EXPECT_EQ(pool.stats().gaugeValue("freePages"), 2);
}

TEST(DramPoolTest, MarkDirtyUnknownHomeIsNoop)
{
    // A free slot caches no home: a store reaching it marks nothing,
    // before any bind and after its page was released.
    Rig rig;
    DramPool pool(2, rig.alloc);
    pool.markDirty(0);
    const auto s = pool.select();
    pool.bind(s.index, 0x500000, {});
    pool.release(s.index);
    pool.markDirty(s.index);
    pool.refreshLists();
    EXPECT_EQ(pool.count(PoolState::dirty), 0u);
    EXPECT_EQ(pool.count(PoolState::free), 2u);
}

TEST(DramPoolTest, RefreshRebuildsAfterStateChanges)
{
    Rig rig;
    DramPool pool(3, rig.alloc);
    unsigned slots[3];
    for (int i = 0; i < 3; ++i) {
        const auto s = pool.select();
        pool.bind(s.index, 0x400000 + Addr(i) * pageSize, {});
        slots[i] = s.index;
    }
    pool.markDirty(slots[0]);
    pool.markDirty(slots[1]);
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
    std::vector<unsigned> bound;  // slots caching a page
    Addr next_home = 0x800000;
    for (int op = 0; op < 4000; ++op) {
        const unsigned kind = static_cast<unsigned>(rng.uniform(100));
        if (kind < 45) {
            const Selection sel = pool.select();
            if (sel.displacedNvm != invalidAddr) {
                bound.erase(
                    std::find(bound.begin(), bound.end(), sel.index));
            }
            pool.bind(sel.index, next_home, {});
            bound.push_back(sel.index);
            next_home += pageSize;
        } else if (kind < 80) {
            // Any slot: a free one must stay free.
            pool.markDirty(
                static_cast<unsigned>(rng.uniform(pool.size())));
        } else if (kind < 90) {
            const unsigned slot =
                static_cast<unsigned>(rng.uniform(pool.size()));
            pool.release(slot);
            const auto it = std::find(bound.begin(), bound.end(), slot);
            if (it != bound.end())
                bound.erase(it);
        } else {
            pool.refreshLists();
        }

        unsigned counts[3] = {0, 0, 0};
        for (const PoolEntry &e : pool.allEntries())
            ++counts[static_cast<unsigned>(e.state)];
        ASSERT_EQ(counts[1] + counts[2], bound.size()) << "op " << op;
        const auto &st = pool.stats();
        ASSERT_EQ(st.gaugeValue("freePages"), counts[0]) << "op " << op;
        ASSERT_EQ(st.gaugeValue("cleanPages"), counts[1]) << "op " << op;
        ASSERT_EQ(st.gaugeValue("dirtyPages"), counts[2]) << "op " << op;
    }
}

} // namespace
} // namespace kindle::hscc
