#include <gtest/gtest.h>

#include "persist/saved_state.hh"

namespace kindle::persist
{
namespace
{

struct Rig
{
    Rig()
        : memory([] {
              mem::HybridMemoryParams p;
              p.dramBytes = 64 * oneMiB;
              p.nvmBytes = 256 * oneMiB;
              return p;
          }()),
          hier(cache::HierarchyParams{}, memory),
          kmem(sim, memory, hier),
          layout(os::NvmLayout::standard(memory.nvmRange()))
    {}

    sim::Simulation sim;
    mem::HybridMemory memory;
    cache::Hierarchy hier;
    os::KernelMem kmem;
    os::NvmLayout layout;
};

SavedContext
sampleContext()
{
    SavedContext ctx;
    ctx.regs.rip = 0x1234;
    ctx.regs.gpr[3] = 99;
    ctx.vmaCount = 2;
    ctx.vmas[0] = {0x1000, 0x3000, 3, 1, 7, 0};
    ctx.vmas[1] = {0x10000, 0x20000, 1, 0, 8, 0};
    return ctx;
}

TEST(SavedStateTest, HeaderRoundTripSurvivesCrash)
{
    Rig rig;
    {
        SavedStateSlot slot(rig.kmem, rig.layout, 3);
        slot.initialize(42, "myproc", PtScheme::rebuild);
    }
    rig.memory.drainWrites(maxTick);
    rig.memory.crash(rig.sim.now(), {});
    SavedStateSlot slot(rig.kmem, rig.layout, 3);
    const SlotHeader hdr = slot.readHeader();
    EXPECT_TRUE(hdr.valid);
    EXPECT_EQ(hdr.pid, 42u);
    EXPECT_STREQ(hdr.name, "myproc");
    EXPECT_EQ(hdr.scheme,
              static_cast<std::uint32_t>(PtScheme::rebuild));
}

TEST(SavedStateTest, UncommittedWorkingCopyIsInvisible)
{
    Rig rig;
    SavedStateSlot slot(rig.kmem, rig.layout, 0);
    slot.initialize(1, "p", PtScheme::rebuild);

    SavedContext first = sampleContext();
    slot.writeWorkingContext(first);
    slot.commit();  // consistent = first

    SavedContext second = sampleContext();
    second.regs.rip = 0x9999;
    slot.writeWorkingContext(second);
    // NO commit: a crash now must still see `first`.

    rig.memory.drainWrites(maxTick);
    rig.memory.crash(rig.sim.now(), {});
    SavedStateSlot fresh(rig.kmem, rig.layout, 0);
    SavedContext got;
    ASSERT_EQ(fresh.readConsistentContext(fresh.readHeader(), got),
              ImageStatus::ok);
    EXPECT_EQ(got.regs.rip, 0x1234u);
}

TEST(SavedStateTest, CommitFlipsAtomically)
{
    Rig rig;
    SavedStateSlot slot(rig.kmem, rig.layout, 0);
    slot.initialize(1, "p", PtScheme::rebuild);
    SavedContext a = sampleContext();
    slot.writeWorkingContext(a);
    slot.commit();
    SavedContext b = sampleContext();
    b.regs.rip = 0x5678;
    slot.writeWorkingContext(b);
    slot.commit();

    rig.memory.drainWrites(maxTick);
    rig.memory.crash(rig.sim.now(), {});
    SavedStateSlot fresh(rig.kmem, rig.layout, 0);
    SavedContext got;
    ASSERT_EQ(fresh.readConsistentContext(fresh.readHeader(), got),
              ImageStatus::ok);
    EXPECT_EQ(got.regs.rip, 0x5678u);
}

TEST(SavedStateTest, ContextCarriesVmas)
{
    Rig rig;
    SavedStateSlot slot(rig.kmem, rig.layout, 1);
    slot.initialize(2, "q", PtScheme::persistent);
    slot.writeWorkingContext(sampleContext());
    slot.commit();

    rig.memory.drainWrites(maxTick);
    rig.memory.crash(rig.sim.now(), {});
    SavedStateSlot fresh(rig.kmem, rig.layout, 1);
    SavedContext ctx;
    ASSERT_EQ(fresh.readConsistentContext(fresh.readHeader(), ctx),
              ImageStatus::ok);
    ASSERT_EQ(ctx.vmaCount, 2u);
    EXPECT_EQ(ctx.vmas[0].start, 0x1000u);
    EXPECT_EQ(ctx.vmas[0].nvm, 1u);
    EXPECT_EQ(ctx.vmas[1].areaId, 8u);
}

TEST(SavedStateTest, MappingListRoundTrip)
{
    Rig rig;
    SavedStateSlot slot(rig.kmem, rig.layout, 2);
    slot.initialize(3, "r", PtScheme::rebuild);
    for (std::uint64_t i = 0; i < 100; ++i)
        slot.writeMappingEntry(i, {i, i + 5000});
    slot.finalizeMappingList(100);

    rig.memory.drainWrites(maxTick);
    rig.memory.crash(rig.sim.now(), {});
    SavedStateSlot fresh(rig.kmem, rig.layout, 2);
    std::vector<MappingEntry> list;
    ASSERT_EQ(fresh.readMappingList(fresh.readHeader(), list),
              ImageStatus::ok);
    ASSERT_EQ(list.size(), 100u);
    EXPECT_EQ(list[42].vpn, 42u);
    EXPECT_EQ(list[42].pfn, 5042u);
}

TEST(SavedStateTest, InvalidateKillsSlot)
{
    Rig rig;
    SavedStateSlot slot(rig.kmem, rig.layout, 4);
    slot.initialize(9, "dead", PtScheme::rebuild);
    slot.invalidate();
    rig.memory.drainWrites(maxTick);
    rig.memory.crash(rig.sim.now(), {});
    SavedStateSlot fresh(rig.kmem, rig.layout, 4);
    EXPECT_FALSE(fresh.readHeader().valid);
}

TEST(SavedStateTest, UninitializedSlotReadsInvalid)
{
    Rig rig;
    SavedStateSlot slot(rig.kmem, rig.layout, 7);
    EXPECT_FALSE(slot.readHeader().valid);
}

TEST(SavedStateTest, SnapshotCapturesProcessLayout)
{
    Rig rig;
    os::Process proc(5, "snap", 0);
    os::Vma vma;
    vma.range = AddrRange(0x7000, 0x9000);
    vma.nvm = true;
    vma.areaId = 3;
    proc.aspace.insert(vma);
    proc.faseActive = true;

    cpu::CpuState regs;
    regs.rip = 0xabcd;
    const SavedContext ctx = SavedStateSlot::snapshot(proc, regs);
    EXPECT_EQ(ctx.regs.rip, 0xabcdu);
    EXPECT_EQ(ctx.vmaCount, 1u);
    EXPECT_EQ(ctx.vmas[0].start, 0x7000u);
    EXPECT_EQ(ctx.faseActive, 1u);

    // Restore into a fresh process: layouts must match.
    os::Process clone(6, "clone", 1);
    SavedStateSlot::restoreAspace(clone, ctx);
    EXPECT_TRUE(clone.aspace == proc.aspace);
    EXPECT_TRUE(clone.faseActive);
}

TEST(SavedStateTest, VerifyHeaderClassifiesDamage)
{
    Rig rig;
    SavedStateSlot slot(rig.kmem, rig.layout, 0);
    slot.initialize(7, "probe", PtScheme::rebuild);
    const SlotHeader hdr = slot.readHeader();
    EXPECT_EQ(SavedStateSlot::verifyHeader(hdr), ImageStatus::ok);

    EXPECT_EQ(SavedStateSlot::verifyHeader(SlotHeader{}),
              ImageStatus::empty);

    SlotHeader scribbled = hdr;
    scribbled.pid ^= 0x5a;  // any bit flip breaks the checksum
    EXPECT_EQ(SavedStateSlot::verifyHeader(scribbled),
              ImageStatus::badChecksum);
}

TEST(SavedStateTest, QuarantineIsDurableAcrossAnotherCrash)
{
    Rig rig;
    {
        SavedStateSlot slot(rig.kmem, rig.layout, 2);
        slot.initialize(9, "victim", PtScheme::rebuild);
        slot.quarantine();
    }
    rig.memory.drainWrites(maxTick);
    rig.memory.crash(rig.sim.now(), {});

    // A second reboot must still see the fence, not retry the slot.
    SavedStateSlot slot(rig.kmem, rig.layout, 2);
    EXPECT_EQ(SavedStateSlot::verifyHeader(slot.readHeader()),
              ImageStatus::quarantined);
}

TEST(SavedStateTest, CorruptConsistentContextIsClassified)
{
    Rig rig;
    SavedStateSlot slot(rig.kmem, rig.layout, 1);
    slot.initialize(5, "ctx", PtScheme::rebuild);
    slot.writeWorkingContext(sampleContext());
    slot.commit();
    const SlotHeader hdr = slot.readHeader();

    // The consistent copy's durable address (contextOffset[] in
    // saved_state.cc: 256 and 8192 bytes into the slot).
    const Addr consistent =
        rig.layout.slotAddr(1) + (hdr.consistentIdx ? 8192 : 256);

    // Flip a payload byte: the context no longer checksums.
    const std::uint8_t junk = 0xa5;
    rig.memory.writeDataDurable(
        consistent + offsetof(SavedContext, vmas), &junk, 1);
    SavedContext out;
    EXPECT_EQ(slot.readConsistentContext(hdr, out),
              ImageStatus::badChecksum);

    // An absurd embedded count classifies before any checksum math
    // touches out-of-range bytes.
    const std::uint32_t huge = 10000;
    rig.memory.writeDataDurable(
        consistent + offsetof(SavedContext, vmaCount), &huge,
        sizeof(huge));
    EXPECT_EQ(slot.readConsistentContext(hdr, out),
              ImageStatus::badCount);
}

TEST(SavedStateTest, MappingListBadCountIsClassified)
{
    Rig rig;
    SavedStateSlot slot(rig.kmem, rig.layout, 4);
    slot.initialize(8, "maps", PtScheme::rebuild);
    SlotHeader hdr = slot.readHeader();
    hdr.mappingCount = slot.maxMappingEntries() + 1;
    std::vector<MappingEntry> out;
    EXPECT_EQ(slot.readMappingList(hdr, out), ImageStatus::badCount);
}

TEST(SavedStateTest, DurableWritesChargeTime)
{
    Rig rig;
    SavedStateSlot slot(rig.kmem, rig.layout, 5);
    const Tick t0 = rig.sim.now();
    slot.initialize(1, "t", PtScheme::rebuild);
    slot.writeWorkingContext(sampleContext());
    slot.commit();
    EXPECT_GT(rig.sim.now(), t0);
}

} // namespace
} // namespace kindle::persist
