#include <gtest/gtest.h>

#include <cstring>

#include "base/checksum.hh"
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
    ctx.vmas = {{0x1000, 0x3000, 3, 1, 7, 0},
                {0x10000, 0x20000, 1, 0, 8, 0}};
    return ctx;
}

/** A context with @p vmas distinct VMAs. */
SavedContext
contextWithVmas(unsigned vmas)
{
    SavedContext ctx;
    for (unsigned i = 0; i < 16; ++i)
        ctx.regs.gpr[i] = 0x100 + i;
    ctx.regs.rip = 0x400000 + vmas;
    ctx.regs.rsp = 0x7fff0000;
    ctx.regs.rflags = 0x246;
    ctx.faseActive = vmas % 2 == 1;
    for (unsigned i = 0; i < vmas; ++i) {
        const std::uint64_t start = 0x100000000ull + i * 0x10000ull;
        ctx.vmas.push_back({start, start + (i + 1) * 0x1000ull,
                            i % 8, i % 2, 1000 + i, 0});
    }
    return ctx;
}

/** Durable address of the slot's consistent context copy (the
 *  contextOffset[] table in saved_state.cc: 256 and 8192 bytes into
 *  the slot). */
Addr
consistentAddr(const os::NvmLayout &layout, unsigned slot,
               const SlotHeader &hdr)
{
    return layout.slotAddr(slot) + (hdr.consistentIdx ? 8192 : 256);
}

/** The media layout, spelled out: registers, then the VMA count, the
 *  FASE flag, the checksum and a pad word, then 96 32-byte VMAs. */
constexpr std::uint64_t imageVmaCountAt = sizeof(cpu::CpuState);
constexpr std::uint64_t imageFaseAt = imageVmaCountAt + 4;
constexpr std::uint64_t imageChecksumAt = imageVmaCountAt + 8;
constexpr std::uint64_t imageVmasAt = imageVmaCountAt + 16;
constexpr std::uint64_t imageBytes =
    imageVmasAt + maxVmasPerContext * sizeof(SerializedVma);

using ContextImage = SavedStateSlot::ContextImage;
static_assert(sizeof(cpu::CpuState) == 152);
static_assert(offsetof(ContextImage, vmaCount) == imageVmaCountAt);
static_assert(offsetof(ContextImage, faseActive) == imageFaseAt);
static_assert(offsetof(ContextImage, checksum) == imageChecksumAt);
static_assert(offsetof(ContextImage, vmas) == imageVmasAt);
static_assert(sizeof(ContextImage) == imageBytes && imageBytes == 3240);

// The host form costs what a process holds: its size does not follow
// the media capacity.
static_assert(sizeof(SavedContext) <=
                  sizeof(cpu::CpuState) + sizeof(std::uint64_t) +
                      sizeof(std::vector<SerializedVma>),
              "host SavedContext must not embed the VMA capacity");

/** What the fixed layout puts on media for @p ctx: the populated
 *  prefix with its checksum, zero bytes after it. */
std::vector<std::uint8_t>
expectedImage(const SavedContext &ctx)
{
    std::vector<std::uint8_t> img(imageBytes, 0);
    const std::uint32_t count = static_cast<std::uint32_t>(ctx.vmas.size());
    const std::uint32_t fase = ctx.faseActive ? 1 : 0;
    std::memcpy(img.data(), &ctx.regs, sizeof(ctx.regs));
    std::memcpy(img.data() + imageVmaCountAt, &count, 4);
    std::memcpy(img.data() + imageFaseAt, &fase, 4);
    if (count > 0) {
        std::memcpy(img.data() + imageVmasAt, ctx.vmas.data(),
                    count * sizeof(SerializedVma));
    }
    const std::uint32_t sum =
        checksum32(img.data(), imageVmasAt + count * sizeof(SerializedVma));
    std::memcpy(img.data() + imageChecksumAt, &sum, 4);
    return img;
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
    ASSERT_EQ(ctx.vmas.size(), 2u);
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
    ASSERT_EQ(ctx.vmas.size(), 1u);
    EXPECT_EQ(ctx.vmas[0].start, 0x7000u);
    EXPECT_TRUE(ctx.faseActive);

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

    const Addr consistent = consistentAddr(rig.layout, 1, hdr);

    // Flip a payload byte: the context no longer checksums.
    const std::uint8_t junk = 0xa5;
    rig.memory.writeDataDurable(
        consistent + offsetof(ContextImage, vmas), &junk, 1);
    SavedContext out;
    EXPECT_EQ(slot.readConsistentContext(hdr, out),
              ImageStatus::badChecksum);

    // A count past the capacity classifies before any checksum math
    // touches out-of-range bytes, and the claimed count is reported.
    for (const std::uint32_t count : {maxVmasPerContext + 1, 10000u}) {
        rig.memory.writeDataDurable(
            consistent + offsetof(ContextImage, vmaCount), &count,
            sizeof(count));
        std::uint32_t claimed = 0;
        EXPECT_EQ(slot.readConsistentContext(hdr, out, &claimed),
                  ImageStatus::badCount);
        EXPECT_EQ(claimed, count);
    }
}

TEST(SavedStateTest, MediaImageKeepsTheFixedLayout)
{
    // A host context holds only the VMAs it has; on media it still
    // lands in the fixed 96-entry layout, byte for byte, and parses
    // back to the same context.
    for (const unsigned vmas : {0u, 3u, maxVmasPerContext}) {
        SCOPED_TRACE(vmas);
        Rig rig;
        SavedStateSlot slot(rig.kmem, rig.layout, 2);
        slot.initialize(4, "media", PtScheme::rebuild);
        const SavedContext ctx = contextWithVmas(vmas);
        slot.writeWorkingContext(ctx);
        slot.commit();
        rig.memory.drainWrites(maxTick);

        const SlotHeader hdr = slot.readHeader();
        std::vector<std::uint8_t> raw(imageBytes);
        rig.memory.readNvmDurable(consistentAddr(rig.layout, 2, hdr),
                                  raw.data(), raw.size());
        EXPECT_EQ(raw, expectedImage(ctx));

        SavedContext got;
        std::uint32_t claimed = ~0u;
        ASSERT_EQ(slot.readConsistentContext(hdr, got, &claimed),
                  ImageStatus::ok);
        EXPECT_EQ(claimed, vmas);
        EXPECT_TRUE(sameContext(got, ctx));
        EXPECT_EQ(got.regs, ctx.regs);
        EXPECT_EQ(got.faseActive, ctx.faseActive);
        ASSERT_EQ(got.vmas.size(), vmas);
        for (unsigned i = 0; i < vmas; ++i) {
            EXPECT_EQ(got.vmas[i].start, ctx.vmas[i].start) << i;
            EXPECT_EQ(got.vmas[i].end, ctx.vmas[i].end) << i;
            EXPECT_EQ(got.vmas[i].prot, ctx.vmas[i].prot) << i;
            EXPECT_EQ(got.vmas[i].nvm, ctx.vmas[i].nvm) << i;
            EXPECT_EQ(got.vmas[i].areaId, ctx.vmas[i].areaId) << i;
        }
    }
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
