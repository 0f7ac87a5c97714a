/**
 * @file
 * Tests for page-table page reclamation (free_pgtables semantics) and
 * adoption of pre-existing table trees.
 */

#include <gtest/gtest.h>

#include "os/page_table.hh"

namespace kindle::os
{
namespace
{

struct Rig
{
    Rig()
        : memory([] {
              mem::HybridMemoryParams p;
              p.dramBytes = 128 * oneMiB;
              p.nvmBytes = 64 * oneMiB;
              return p;
          }()),
          hier(cache::HierarchyParams{}, memory),
          kmem(sim, memory, hier),
          alloc("tables", AddrRange(oneMiB, 64 * oneMiB), kmem),
          mgr(kmem, alloc)
    {}

    sim::Simulation sim;
    mem::HybridMemory memory;
    cache::Hierarchy hier;
    KernelMem kmem;
    FrameAllocator alloc;
    PageTableManager mgr;
};

TEST(PtReclaimTest, LastUnmapFreesTheWholeSubtree)
{
    Rig rig;
    const Addr root = rig.mgr.newRoot();
    const auto base = rig.alloc.allocatedFrames();
    rig.mgr.map(root, 0x10000000, 0x5000, true, false);
    EXPECT_EQ(rig.alloc.allocatedFrames() - base, 3u);
    rig.mgr.unmap(root, 0x10000000);
    // PT, PD and PDPT all became empty and were reclaimed.
    EXPECT_EQ(rig.alloc.allocatedFrames() - base, 0u);
    // The root itself survives.
    EXPECT_TRUE(rig.alloc.isAllocated(root));
}

TEST(PtReclaimTest, SharedTablesSurviveUntilLastUser)
{
    Rig rig;
    const Addr root = rig.mgr.newRoot();
    const auto base = rig.alloc.allocatedFrames();
    rig.mgr.map(root, 0x20000000, 0x5000, true, false);
    rig.mgr.map(root, 0x20001000, 0x6000, true, false);  // same PT
    EXPECT_EQ(rig.alloc.allocatedFrames() - base, 3u);

    rig.mgr.unmap(root, 0x20000000);
    // The sibling still holds the subtree alive.
    EXPECT_EQ(rig.alloc.allocatedFrames() - base, 3u);
    EXPECT_TRUE(rig.mgr.readLeaf(root, 0x20001000).present());

    rig.mgr.unmap(root, 0x20001000);
    EXPECT_EQ(rig.alloc.allocatedFrames() - base, 0u);
}

TEST(PtReclaimTest, PartialReclaimStopsAtSharedLevel)
{
    Rig rig;
    const Addr root = rig.mgr.newRoot();
    const auto base = rig.alloc.allocatedFrames();
    // Two pages sharing the PDPT but nothing below (1 GiB apart).
    rig.mgr.map(root, 0, 0x5000, true, false);
    rig.mgr.map(root, oneGiB, 0x6000, true, false);
    EXPECT_EQ(rig.alloc.allocatedFrames() - base, 5u);

    rig.mgr.unmap(root, 0);
    // Its private PD+PT go; the shared PDPT stays.
    EXPECT_EQ(rig.alloc.allocatedFrames() - base, 3u);
    EXPECT_TRUE(rig.mgr.readLeaf(root, oneGiB).present());
}

TEST(PtReclaimTest, RemapAfterReclaimRebuildsTables)
{
    Rig rig;
    const Addr root = rig.mgr.newRoot();
    rig.mgr.map(root, 0x30000000, 0x5000, true, true);
    rig.mgr.unmap(root, 0x30000000);
    rig.mgr.map(root, 0x30000000, 0x7000, true, true);
    const auto leaf = rig.mgr.readLeaf(root, 0x30000000);
    ASSERT_TRUE(leaf.present());
    EXPECT_EQ(leaf.frameAddr(), 0x7000u);
}

TEST(PtReclaimTest, ChurnDoesNotLeakTableFrames)
{
    Rig rig;
    const Addr root = rig.mgr.newRoot();
    const auto base = rig.alloc.allocatedFrames();
    for (int round = 0; round < 20; ++round) {
        for (unsigned i = 0; i < 32; ++i) {
            rig.mgr.map(root, 0x40000000 + Addr(i) * pageSize,
                        0x100000 + Addr(i) * pageSize, true, false);
        }
        for (unsigned i = 0; i < 32; ++i)
            rig.mgr.unmap(root, 0x40000000 + Addr(i) * pageSize);
        ASSERT_EQ(rig.alloc.allocatedFrames() - base, 0u) << round;
    }
}

TEST(PtReclaimTest, PresentEntriesTracksLeafCount)
{
    Rig rig;
    const Addr root = rig.mgr.newRoot();
    EXPECT_EQ(rig.mgr.presentEntries(root), 0u);
    rig.mgr.map(root, 0x50000000, 0x5000, true, false);
    EXPECT_EQ(rig.mgr.presentEntries(root), 1u);
    rig.mgr.map(root, 0x50000000 + oneGiB, 0x6000, true, false);
    EXPECT_EQ(rig.mgr.presentEntries(root), 1u);  // same PML4 slot
}

TEST(PtReclaimTest, AdoptRebuildsBookkeeping)
{
    Rig rig;
    const Addr root = rig.mgr.newRoot();
    for (unsigned i = 0; i < 10; ++i) {
        rig.mgr.map(root, 0x60000000 + Addr(i) * pageSize,
                    0x200000 + Addr(i) * pageSize, true, false);
    }

    // A second manager adopts the same tree (the persistent-scheme
    // recovery path) and must be able to unmap with reclamation.
    PageTableManager fresh(rig.kmem, rig.alloc);
    fresh.adopt(root);
    const auto before = rig.alloc.allocatedFrames();
    for (unsigned i = 0; i < 10; ++i)
        fresh.unmap(root, 0x60000000 + Addr(i) * pageSize);
    // PT/PD/PDPT reclaimed by the adopting manager.
    EXPECT_EQ(before - rig.alloc.allocatedFrames(), 3u);
}

} // namespace
} // namespace kindle::os
