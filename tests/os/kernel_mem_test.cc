#include <gtest/gtest.h>

#include "os/kernel_mem.hh"

namespace kindle::os
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
          kmem(sim, memory, hier)
    {}

    Addr nvm(std::uint64_t off = 0) const
    {
        return 64 * oneMiB + off;
    }

    sim::Simulation sim;
    mem::HybridMemory memory;
    cache::Hierarchy hier;
    KernelMem kmem;
};

TEST(KernelMemTest, ScalarRoundTripAndTiming)
{
    Rig rig;
    const Tick t0 = rig.sim.now();
    rig.kmem.write64(0x1000, 0xabcdef);
    EXPECT_EQ(rig.kmem.read64(0x1000), 0xabcdefu);
    EXPECT_GT(rig.sim.now(), t0);
}

TEST(KernelMemTest, UncachedAccessBypassesCaches)
{
    Rig rig;
    rig.kmem.write64Uncached(0x2000, 42);
    EXPECT_FALSE(rig.hier.l1().contains(0x2000));
    EXPECT_EQ(rig.kmem.mem().readT<std::uint64_t>(0x2000), 42u);
    const Tick t0 = rig.sim.now();
    rig.kmem.chargeUncachedRead(0x2000);
    EXPECT_GT(rig.sim.now(), t0);
    EXPECT_FALSE(rig.hier.l1().contains(0x2000));
}

TEST(KernelMemTest, CachedAccessWarmsCaches)
{
    Rig rig;
    rig.kmem.write64(0x3000, 7);
    EXPECT_TRUE(rig.hier.l1().contains(0x3000));
}

TEST(KernelMemTest, BufferRoundTripAcrossLines)
{
    Rig rig;
    const char msg[] = "spanning multiple cache lines for sure......"
                       "........................................";
    rig.kmem.writeBuf(0x4000 - 16, msg, sizeof(msg));
    char out[sizeof(msg)] = {};
    rig.kmem.readBuf(0x4000 - 16, out, sizeof(msg));
    EXPECT_STREQ(out, msg);
}

TEST(KernelMemTest, WriteBufDurableSurvivesCrash)
{
    Rig rig;
    const std::uint64_t v = 0x600d600d;
    rig.kmem.writeBufDurable(rig.nvm(0x100), &v, sizeof(v));
    rig.memory.drainWrites(maxTick);
    rig.memory.crash(rig.sim.now(), {});
    std::uint64_t out = 0;
    rig.memory.readNvmDurable(rig.nvm(0x100), &out, sizeof(out));
    EXPECT_EQ(out, v);
}

TEST(KernelMemTest, PlainWriteToNvmDoesNotSurviveCrash)
{
    Rig rig;
    rig.kmem.write64(rig.nvm(0x200), 0xbad);
    rig.memory.drainWrites(maxTick);
    rig.memory.crash(rig.sim.now(), {});
    std::uint64_t out = 1;
    rig.memory.readNvmDurable(rig.nvm(0x200), &out, sizeof(out));
    EXPECT_EQ(out, 0u);
}

TEST(KernelMemTest, DurableWriteWaitsForDrain)
{
    Rig rig;
    // Pile up posted NVM writes, then issue a durable write: the
    // fence must wait for the backlog, costing much more than an
    // unloaded durable write.
    Rig loaded;
    for (int i = 0; i < 64; ++i) {
        loaded.kmem.write64Uncached(loaded.nvm(0x1000 + i * 64), i);
    }
    const Tick t0 = loaded.sim.now();
    const std::uint64_t v = 1;
    loaded.kmem.writeBufDurable(loaded.nvm(0x8000), &v, 8);
    const Tick loaded_cost = loaded.sim.now() - t0;

    const Tick u0 = rig.sim.now();
    rig.kmem.writeBufDurable(rig.nvm(0x8000), &v, 8);
    const Tick unloaded_cost = rig.sim.now() - u0;
    EXPECT_GT(loaded_cost, unloaded_cost);
}

TEST(KernelMemTest, CopyPageMovesBytesAndIsDurableInNvm)
{
    Rig rig;
    const char payload[16] = "page contents!!";
    rig.memory.writeData(0x10000, payload, sizeof(payload));
    rig.kmem.copyPage(rig.nvm(0x20000), 0x10000, true);

    rig.memory.drainWrites(maxTick);
    rig.memory.crash(rig.sim.now(), {});
    char out[16] = {};
    rig.memory.readNvmDurable(rig.nvm(0x20000), out, sizeof(out));
    EXPECT_STREQ(out, payload);
}

TEST(KernelMemTest, ZeroDurableClearsRegion)
{
    Rig rig;
    const std::uint64_t dirty = 0xffff;
    rig.kmem.writeBufDurable(rig.nvm(0x30000), &dirty, 8);
    rig.kmem.zeroDurable(rig.nvm(0x30000), pageSize);
    rig.memory.drainWrites(maxTick);
    rig.memory.crash(rig.sim.now(), {});
    std::uint64_t out = 1;
    rig.memory.readNvmDurable(rig.nvm(0x30000), &out, 8);
    EXPECT_EQ(out, 0u);
}

TEST(KernelMemTest, ReadDurableBufSeesOnlyCommittedData)
{
    Rig rig;
    const std::uint64_t durable = 5;
    rig.kmem.writeBufDurable(rig.nvm(0x40000), &durable, 8);
    rig.kmem.write64(rig.nvm(0x40000), 99);  // newer, volatile

    std::uint64_t out = 0;
    rig.kmem.readDurableBuf(rig.nvm(0x40000), &out, 8);
    EXPECT_EQ(out, 5u);
}

} // namespace
} // namespace kindle::os
