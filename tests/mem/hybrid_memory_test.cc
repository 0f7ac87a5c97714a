#include <gtest/gtest.h>

#include "mem/hybrid_memory.hh"

namespace kindle::mem
{
namespace
{

HybridMemoryParams
smallParams()
{
    HybridMemoryParams p;
    p.dramBytes = 64 * oneMiB;
    p.nvmBytes = 64 * oneMiB;
    return p;
}

TEST(HybridMemoryTest, FlatAddressLayout)
{
    HybridMemory mem(smallParams());
    EXPECT_EQ(mem.dramRange().start(), 0u);
    EXPECT_EQ(mem.dramRange().end(), 64 * oneMiB);
    EXPECT_EQ(mem.nvmRange().start(), 64 * oneMiB);
    EXPECT_EQ(mem.nvmRange().end(), 128 * oneMiB);
    EXPECT_EQ(mem.typeOf(0), MemType::dram);
    EXPECT_EQ(mem.typeOf(64 * oneMiB), MemType::nvm);
}

TEST(HybridMemoryTest, RoutingByAddress)
{
    HybridMemory mem(smallParams());
    mem.submit({MemCmd::read, 0x1000, lineSize}, 0);
    mem.submit({MemCmd::read, 64 * oneMiB + 0x1000, lineSize}, 0);
    EXPECT_EQ(mem.dramCtrl().device().stats().scalarValue("readReqs"),
              1);
    EXPECT_EQ(mem.nvmCtrl().device().stats().scalarValue("readReqs"),
              1);
}

TEST(HybridMemoryTest, NvmWritebackBuffersLineUntilDrain)
{
    HybridMemory mem(smallParams());
    const Addr nvm_addr = 64 * oneMiB + 0x2000;
    mem.writeT<std::uint64_t>(nvm_addr, 77);
    EXPECT_EQ(mem.nvmPendingLines(), 1u);

    // The writeback moves the line from the volatile overlay into the
    // controller's posted-write buffer ...
    mem.submit({MemCmd::writeback, nvm_addr, lineSize}, 0);
    EXPECT_EQ(mem.nvmPendingLines(), 0u);
    EXPECT_EQ(mem.nvmInflightLines(), 1u);

    // ... which is not yet crash-safe ...
    std::uint64_t v = 1;
    mem.readNvmDurable(nvm_addr, &v, 8);
    EXPECT_EQ(v, 0u);

    // ... until the device drain completes (what a fence waits for).
    mem.drainWrites(mem.nvmCtrl().writesDrainedAt());
    EXPECT_EQ(mem.nvmInflightLines(), 0u);
    mem.readNvmDurable(nvm_addr, &v, 8);
    EXPECT_EQ(v, 77u);
}

TEST(HybridMemoryTest, CrashLosesUndrainedBufferedWrites)
{
    HybridMemory mem(smallParams());
    const Addr nvm_addr = 64 * oneMiB + 0x4000;
    mem.writeT<std::uint64_t>(nvm_addr, 55);
    mem.submit({MemCmd::writeback, nvm_addr, lineSize}, 0);
    const Tick drain = mem.nvmCtrl().writesDrainedAt();

    // Power cut one tick before the drain completes: line is lost.
    const CrashOutcome out = mem.crash(drain - 1, {});
    EXPECT_EQ(out.linesLost, 1u);
    std::uint64_t v = 1;
    mem.readNvmDurable(nvm_addr, &v, 8);
    EXPECT_EQ(v, 0u);
}

TEST(HybridMemoryTest, DramContentsVanishOnCrash)
{
    HybridMemory mem(smallParams());
    mem.writeT<std::uint64_t>(0x3000, 123);
    EXPECT_EQ(mem.readT<std::uint64_t>(0x3000), 123u);
    mem.drainWrites(maxTick);
    mem.crash(0, {});
    EXPECT_EQ(mem.readT<std::uint64_t>(0x3000), 0u);
}

TEST(HybridMemoryTest, DurableNvmSurvivesCrash)
{
    HybridMemory mem(smallParams());
    const Addr nvm_addr = 64 * oneMiB + 0x4000;
    mem.writeDataDurable(nvm_addr, "persist", 8);
    mem.writeT<std::uint64_t>(nvm_addr + 64, 5);  // volatile overlay

    mem.drainWrites(maxTick);
    mem.crash(0, {});

    char buf[8] = {};
    mem.readData(nvm_addr, buf, 8);
    EXPECT_STREQ(buf, "persist");
    EXPECT_EQ(mem.readT<std::uint64_t>(nvm_addr + 64), 0u);
}

TEST(HybridMemoryTest, E820MatchesRanges)
{
    HybridMemory mem(smallParams());
    EXPECT_EQ(mem.e820().regionOf(E820Type::pmem), mem.nvmRange());
}

TEST(HybridMemoryTest, CommitNvmLineIgnoresDram)
{
    HybridMemory mem(smallParams());
    // Committing a DRAM address is a harmless no-op.
    mem.commitNvmLine(0x1000);
    SUCCEED();
}

TEST(HybridMemoryTest, DurableWriteOutsideNvmPanics)
{
    setErrorsThrow(true);
    HybridMemory mem(smallParams());
    std::uint64_t v = 0;
    EXPECT_THROW(mem.writeDataDurable(0x1000, &v, 8), SimError);
    setErrorsThrow(false);
}

} // namespace
} // namespace kindle::mem
