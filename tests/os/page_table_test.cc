#include <gtest/gtest.h>

#include <map>

#include "os/page_table.hh"

namespace kindle::os
{
namespace
{

struct Rig
{
    /** Tables in DRAM, or in NVM under @p media when @p nvm_tables. */
    explicit Rig(bool nvm_tables = false,
                 const fault::MediaFaultPlan &media = {})
        : memory([&] {
              mem::HybridMemoryParams p;
              p.dramBytes = 128 * oneMiB;
              p.nvmBytes = 64 * oneMiB;
              p.media = media;
              return p;
          }()),
          hier(cache::HierarchyParams{}, memory),
          kmem(sim, memory, hier),
          alloc("tables",
                nvm_tables ? AddrRange::withSize(memory.nvmRange().start(),
                                                 32 * oneMiB)
                           : AddrRange(oneMiB, 64 * oneMiB),
                kmem),
          mgr(kmem, alloc)
    {}

    sim::Simulation sim;
    mem::HybridMemory memory;
    cache::Hierarchy hier;
    KernelMem kmem;
    FrameAllocator alloc;
    PageTableManager mgr;
};

TEST(PageTableTest, MapThenReadLeaf)
{
    Rig rig;
    const Addr root = rig.mgr.newRoot();
    rig.mgr.map(root, 0x10000000, 0x5000, true, true);
    const auto leaf = rig.mgr.readLeaf(root, 0x10000000);
    EXPECT_TRUE(leaf.present());
    EXPECT_TRUE(leaf.writable());
    EXPECT_TRUE(leaf.nvmBacked());
    EXPECT_EQ(leaf.frameAddr(), 0x5000u);
}

TEST(PageTableTest, UnmappedLeafReadsAbsent)
{
    Rig rig;
    const Addr root = rig.mgr.newRoot();
    EXPECT_FALSE(rig.mgr.readLeaf(root, 0x123456000).present());
}

TEST(PageTableTest, UnmapReturnsOldMapping)
{
    Rig rig;
    const Addr root = rig.mgr.newRoot();
    rig.mgr.map(root, 0x20000000, 0x6000, true, false);
    const auto old = rig.mgr.unmap(root, 0x20000000);
    ASSERT_TRUE(old.has_value());
    EXPECT_EQ(old->frameAddr(), 0x6000u);
    EXPECT_FALSE(rig.mgr.readLeaf(root, 0x20000000).present());
    EXPECT_FALSE(rig.mgr.unmap(root, 0x20000000).has_value());
}

TEST(PageTableTest, IntermediateTablesAllocatedOnDemand)
{
    Rig rig;
    const Addr root = rig.mgr.newRoot();
    const auto before = rig.alloc.allocatedFrames();
    // First page: PDPT + PD + PT (3 tables).  A second page 1 GiB
    // away shares the PDPT and adds PD + PT (2 more).
    rig.mgr.map(root, 0, 0x1000, true, false);
    rig.mgr.map(root, oneGiB, 0x2000, true, false);
    EXPECT_EQ(rig.alloc.allocatedFrames() - before, 5u);
    // Two pages in the same 2 MiB region share everything.
    rig.mgr.map(root, pageSize, 0x3000, true, false);
    EXPECT_EQ(rig.alloc.allocatedFrames() - before, 5u);
}

TEST(PageTableTest, StridePatternsTouchDifferentLevels)
{
    // The Figure 4b mechanism: larger strides force more table pages.
    auto tables_for_stride = [](std::uint64_t stride) {
        Rig rig;
        const Addr root = rig.mgr.newRoot();
        const auto before = rig.alloc.allocatedFrames();
        for (unsigned i = 0; i < 10; ++i)
            rig.mgr.map(root, Addr(i) * stride, 0x1000, true, true);
        return rig.alloc.allocatedFrames() - before;
    };
    const auto t4k = tables_for_stride(4 * oneKiB);
    const auto t2m = tables_for_stride(2 * oneMiB);
    const auto t1g = tables_for_stride(oneGiB);
    EXPECT_LT(t4k, t2m);
    EXPECT_LT(t2m, t1g);
}

TEST(PageTableTest, ForEachLeafVisitsAllMappings)
{
    Rig rig;
    const Addr root = rig.mgr.newRoot();
    std::map<Addr, Addr> expect;
    for (unsigned i = 0; i < 100; ++i) {
        const Addr va = 0x40000000 + Addr(i) * pageSize;
        const Addr fa = 0x100000 + Addr(i) * pageSize;
        rig.mgr.map(root, va, fa, true, i % 2 == 0);
        expect[va] = fa;
    }
    std::map<Addr, Addr> seen;
    rig.mgr.forEachLeaf(root, [&](Addr va, cpu::Pte pte, Addr) {
        seen[va] = pte.frameAddr();
    });
    EXPECT_EQ(seen, expect);
}

TEST(PageTableTest, TableReadCountsEccLikeEntryLoads)
{
    // A walk reads each table page once, but the NVM media counters
    // must end where 512 entry loads left them: a correctable line
    // counts one demand correction per entry read from it.
    fault::MediaFaultPlan media;
    media.writeEndurance = std::uint64_t(1) << 40;  // model on, no wear
    Rig rig(/*nvm_tables=*/true, media);
    const Addr root = rig.mgr.newRoot();
    rig.mgr.map(root, 0, 0x1000, true, true);
    // The root's last line holds only absent (durably zeroed) entries.
    rig.memory.media()->injectError(root + pageSize - lineSize, 1);
    unsigned leaves = 0;
    rig.mgr.forEachLeaf(root, [&](Addr, cpu::Pte, Addr) { ++leaves; });
    EXPECT_EQ(leaves, 1u);
    EXPECT_EQ(rig.memory.media()->stats().scalarValue(
                  "demandCorrections"),
              lineSize / cpu::ptEntrySize);
}

TEST(PageTableTest, WriteLeafUpdatesInPlace)
{
    Rig rig;
    const Addr root = rig.mgr.newRoot();
    rig.mgr.map(root, 0x50000000, 0x7000, true, true);
    auto leaf = rig.mgr.readLeaf(root, 0x50000000);
    leaf.setAccessCount(42);
    leaf.setHsccRemapped(true);
    rig.mgr.writeLeaf(root, 0x50000000, leaf);
    const auto back = rig.mgr.readLeaf(root, 0x50000000);
    EXPECT_EQ(back.accessCount(), 42u);
    EXPECT_TRUE(back.hsccRemapped());
}

TEST(PageTableTest, TeardownFreesEveryTableFrame)
{
    Rig rig;
    const auto base = rig.alloc.allocatedFrames();
    const Addr root = rig.mgr.newRoot();
    for (unsigned i = 0; i < 50; ++i)
        rig.mgr.map(root, Addr(i) * 4 * oneMiB, 0x1000, true, false);
    EXPECT_GT(rig.alloc.allocatedFrames(), base);
    rig.mgr.teardown(root);
    EXPECT_EQ(rig.alloc.allocatedFrames(), base);
}

TEST(PageTableTest, EntryWritesCharged)
{
    Rig rig;
    const Addr root = rig.mgr.newRoot();
    const auto w0 = rig.mgr.entryWrites();
    rig.mgr.map(root, 0x60000000, 0x8000, true, false);
    // First map in an empty root: 3 intermediate + 1 leaf.
    EXPECT_EQ(rig.mgr.entryWrites() - w0, 4u);
}

TEST(PageTableTest, ConsistentPolicyInvokedPerStore)
{
    struct CountingPolicy : PtWritePolicy
    {
        explicit CountingPolicy(KernelMem &kmem) : inner(kmem) {}
        void
        writeEntry(Addr a, std::uint64_t v) override
        {
            ++count;
            inner.writeEntry(a, v);
        }
        PlainPtWrite inner;
        int count = 0;
    };

    Rig rig;
    CountingPolicy policy(rig.kmem);
    PageTableManager mgr(rig.kmem, rig.alloc);
    mgr.setWritePolicy(&policy);
    const Addr root = mgr.newRoot();
    mgr.map(root, 0x70000000, 0x9000, true, false);
    EXPECT_EQ(policy.count, 4);
    // Unmapping the only page clears the leaf and unlinks the three
    // now-empty tables from their parents: four wrapped stores.
    mgr.unmap(root, 0x70000000);
    EXPECT_EQ(policy.count, 8);

    // A null policy restores plain stores.
    mgr.setWritePolicy(nullptr);
    mgr.map(root, 0x70000000, 0x9000, true, false);
    EXPECT_EQ(policy.count, 8);
}

} // namespace
} // namespace kindle::os
