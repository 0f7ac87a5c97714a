#include <gtest/gtest.h>

#include "hscc/mapping_table.hh"

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
          alloc("dram", AddrRange(oneMiB, 32 * oneMiB), kmem),
          table(64, kmem, alloc)
    {}

    sim::Simulation sim;
    mem::HybridMemory memory;
    cache::Hierarchy hier;
    os::KernelMem kmem;
    os::FrameAllocator alloc;
    MappingTable table;
};

TEST(MappingTableTest, SlotReadReturnsHome)
{
    Rig rig;
    rig.table.set(0, 0x100000, 0x200000);
    EXPECT_EQ(rig.table.nvmAt(0), 0x100000u);
    const MapEntry e = rig.table.peek(0);
    EXPECT_EQ(e.nvmFrame, 0x100000u);
    EXPECT_EQ(e.dramFrame, 0x200000u);
}

TEST(MappingTableTest, MissReturnsInvalid)
{
    Rig rig;
    // A never-set slot and an index past the table both miss.
    EXPECT_EQ(rig.table.nvmAt(3), invalidAddr);
    EXPECT_EQ(rig.table.nvmAt(64), invalidAddr);
}

TEST(MappingTableTest, ClearEmptiesSlot)
{
    Rig rig;
    rig.table.set(5, 0x300000, 0x400000);
    rig.table.clear(5);
    EXPECT_EQ(rig.table.nvmAt(5), invalidAddr);
    const MapEntry e = rig.table.peek(5);
    EXPECT_EQ(e.nvmFrame, 0u);
    EXPECT_EQ(e.dramFrame, 0u);
}

TEST(MappingTableTest, SlotReuseOverwrites)
{
    Rig rig;
    rig.table.set(2, 0x100000, 0x200000);
    rig.table.clear(2);
    rig.table.set(2, 0x110000, 0x210000);
    EXPECT_EQ(rig.table.nvmAt(2), 0x110000u);
    EXPECT_EQ(rig.table.peek(2).dramFrame, 0x210000u);
    // Set over a set entry (no clear between) overwrites too.
    rig.table.set(2, 0x120000, 0x210000);
    EXPECT_EQ(rig.table.nvmAt(2), 0x120000u);
}

TEST(MappingTableTest, ManySlots)
{
    Rig rig;
    for (unsigned i = 0; i < 64; ++i) {
        rig.table.set(i, 0x1000000 + Addr(i) * pageSize,
                      0x2000000 + Addr(i) * pageSize);
    }
    for (unsigned i = 0; i < 64; ++i) {
        EXPECT_EQ(rig.table.nvmAt(i), 0x1000000 + Addr(i) * pageSize);
        EXPECT_EQ(rig.table.peek(i).dramFrame,
                  0x2000000 + Addr(i) * pageSize);
    }
}

TEST(MappingTableTest, OutOfRangeSlotPanics)
{
    setErrorsThrow(true);
    Rig rig;
    EXPECT_THROW(rig.table.set(64, 0x1000, 0x2000), SimError);
    setErrorsThrow(false);
}

TEST(MappingTableTest, LookupsChargeTime)
{
    Rig rig;
    // Before its first set a slot misses without a memory access.
    const Tick t0 = rig.sim.now();
    rig.table.nvmAt(0);
    EXPECT_EQ(rig.sim.now(), t0);
    rig.table.set(0, 0x100000, 0x200000);
    const Tick t1 = rig.sim.now();
    EXPECT_GT(t1, t0);
    rig.table.nvmAt(0);
    EXPECT_GT(rig.sim.now(), t1);
    // Misses are resolved by the hardware-indexed lookup and charge
    // nothing: an empty slot, an index past the table, and a
    // cleared slot.
    const Tick t2 = rig.sim.now();
    rig.table.nvmAt(1);
    rig.table.nvmAt(64);
    EXPECT_EQ(rig.sim.now(), t2);
    rig.table.clear(0);
    const Tick t3 = rig.sim.now();
    EXPECT_GT(t3, t2);
    rig.table.nvmAt(0);
    EXPECT_EQ(rig.sim.now(), t3);
    // peek is an untimed inspection.
    rig.table.peek(0);
    EXPECT_EQ(rig.sim.now(), t3);
}

TEST(MappingTableTest, StatsCount)
{
    Rig rig;
    rig.table.set(0, 0x100000, 0x200000);
    rig.table.nvmAt(0);
    rig.table.nvmAt(1);  // a miss still counts as a lookup
    rig.table.peek(0);   // an inspection does not
    rig.table.clear(0);
    EXPECT_EQ(rig.table.stats().scalarValue("updates"), 2);
    EXPECT_EQ(rig.table.stats().scalarValue("lookups"), 2);
}

} // namespace
} // namespace kindle::hscc
