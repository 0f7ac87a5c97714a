#include <gtest/gtest.h>

#include <vector>

#include "mem/backing_store.hh"

namespace kindle::mem
{
namespace
{

TEST(BackingStoreTest, ReadsZeroFromHoles)
{
    BackingStore store(AddrRange(0, oneMiB));
    EXPECT_EQ(store.readT<std::uint64_t>(0x1000), 0u);
    EXPECT_EQ(store.framesAllocated(), 0u);
}

TEST(BackingStoreTest, WriteReadRoundTrip)
{
    BackingStore store(AddrRange(0, oneMiB));
    store.writeT<std::uint64_t>(0x1008, 0xdeadbeefcafef00dull);
    EXPECT_EQ(store.readT<std::uint64_t>(0x1008),
              0xdeadbeefcafef00dull);
    EXPECT_EQ(store.framesAllocated(), 1u);
}

TEST(BackingStoreTest, CrossPageAccess)
{
    BackingStore store(AddrRange(0, oneMiB));
    const char msg[] = "hello across the page boundary";
    store.write(pageSize - 8, msg, sizeof(msg));
    char out[sizeof(msg)] = {};
    store.read(pageSize - 8, out, sizeof(msg));
    EXPECT_STREQ(out, msg);
    EXPECT_EQ(store.framesAllocated(), 2u);
}

TEST(BackingStoreTest, ClearForgetsEverything)
{
    BackingStore store(AddrRange(0, oneMiB));
    store.writeT<std::uint32_t>(0x2000, 7);
    store.clear();
    EXPECT_EQ(store.readT<std::uint32_t>(0x2000), 0u);
}

TEST(BackingStoreTest, FramesInSeparateRadixLeaves)
{
    // 1025 frames: two full leaves plus a one-frame third leaf, and a
    // range that starts away from zero.
    constexpr std::uint64_t leaf = BackingStore::leafFrames;
    const Addr base = 3 * oneGiB;
    BackingStore store(AddrRange::withSize(base, (2 * leaf + 1) * pageSize));
    const std::vector<std::uint64_t> frames = {0, leaf - 1, leaf,
                                               2 * leaf};
    for (const std::uint64_t f : frames)
        store.writeT<std::uint64_t>(base + f * pageSize + 8, f + 1);
    // A second write to a materialized frame allocates nothing.
    store.writeT<std::uint64_t>(base + leaf * pageSize + 16, 5);
    EXPECT_EQ(store.framesAllocated(), frames.size());
    for (const std::uint64_t f : frames)
        EXPECT_EQ(store.readT<std::uint64_t>(base + f * pageSize + 8), f + 1);
    // Reads of untouched frames, in touched and untouched leaves,
    // materialize nothing.
    EXPECT_EQ(store.readT<std::uint64_t>(base + pageSize), 0u);
    EXPECT_EQ(store.readT<std::uint64_t>(base + (leaf + 7) * pageSize),
              0u);
    EXPECT_EQ(store.framesAllocated(), frames.size());

    store.clear();
    EXPECT_EQ(store.framesAllocated(), 0u);
    for (const std::uint64_t f : frames)
        EXPECT_EQ(store.readT<std::uint64_t>(base + f * pageSize + 8), 0u);
    store.writeT<std::uint8_t>(base + (2 * leaf + 1) * pageSize - 1, 9);
    EXPECT_EQ(store.framesAllocated(), 1u);
    EXPECT_EQ(
        store.readT<std::uint8_t>(base + (2 * leaf + 1) * pageSize - 1), 9);
}

TEST(BackingStoreTest, NonZeroBaseRange)
{
    BackingStore store(AddrRange::withSize(3 * oneGiB, oneMiB));
    store.writeT<std::uint64_t>(3 * oneGiB + 0x10, 99);
    EXPECT_EQ(store.readT<std::uint64_t>(3 * oneGiB + 0x10), 99u);
}

TEST(BackingStoreTest, OutOfRangePanics)
{
    setErrorsThrow(true);
    BackingStore store(AddrRange(0, oneMiB));
    EXPECT_THROW(store.writeT<std::uint8_t>(2 * oneMiB, 1), SimError);
    setErrorsThrow(false);
}

TEST(DurableStoreTest, VolatileWriteVisibleButNotDurable)
{
    DurableStore store(AddrRange(0, oneMiB));
    store.writeVolatileT<std::uint64_t>(0x100, 42);
    EXPECT_EQ(store.readT<std::uint64_t>(0x100), 42u);

    std::uint64_t durable = 1;
    store.readDurable(0x100, &durable, 8);
    EXPECT_EQ(durable, 0u);
    EXPECT_EQ(store.pendingLines(), 1u);
}

TEST(DurableStoreTest, CommitLineMakesDurable)
{
    DurableStore store(AddrRange(0, oneMiB));
    store.writeVolatileT<std::uint64_t>(0x100, 42);
    store.commitLineImmediate(0x100);
    std::uint64_t durable = 0;
    store.readDurable(0x100, &durable, 8);
    EXPECT_EQ(durable, 42u);
    EXPECT_EQ(store.pendingLines(), 0u);
}

TEST(DurableStoreTest, CrashDropsPendingOnly)
{
    DurableStore store(AddrRange(0, oneMiB));
    store.writeVolatileT<std::uint64_t>(0x100, 1);
    store.commitLineImmediate(0x100);
    store.writeVolatileT<std::uint64_t>(0x100, 2);  // newer, pending
    store.writeVolatileT<std::uint64_t>(0x200, 3);  // pending only

    store.drainTo(maxTick);
    store.crash(0, {});

    EXPECT_EQ(store.readT<std::uint64_t>(0x100), 1u);  // old survives
    EXPECT_EQ(store.readT<std::uint64_t>(0x200), 0u);  // lost
}

TEST(DurableStoreTest, PartialLineWritePreservesNeighbours)
{
    DurableStore store(AddrRange(0, oneMiB));
    store.writeDurableT<std::uint64_t>(0x100, 0x1111);
    store.writeDurableT<std::uint64_t>(0x108, 0x2222);
    // Volatile write to one word of the same line ...
    store.writeVolatileT<std::uint64_t>(0x100, 0x9999);
    // ... the other word must remain intact through the overlay.
    EXPECT_EQ(store.readT<std::uint64_t>(0x108), 0x2222u);
    store.commitLineImmediate(0x100);
    std::uint64_t v = 0;
    store.readDurable(0x108, &v, 8);
    EXPECT_EQ(v, 0x2222u);
}

TEST(DurableStoreTest, BufferedCommitDurableOnlyAfterDrain)
{
    DurableStore store(AddrRange(0, oneMiB));
    store.writeVolatileT<std::uint64_t>(0x100, 42);
    // Writeback accepted at tick 100, device drain completes at 500.
    store.commitLine(0x100, 100, 500);
    EXPECT_EQ(store.pendingLines(), 0u);
    EXPECT_EQ(store.inflightLines(), 1u);
    // The latest value is still visible to reads ...
    EXPECT_EQ(store.readT<std::uint64_t>(0x100), 42u);

    // ... but a crash before the drain completes loses it.
    const CrashOutcome out = store.crash(400, {});
    EXPECT_EQ(out.linesLost, 1u);
    EXPECT_EQ(out.linesDrained, 0u);
    std::uint64_t v = 1;
    store.readDurable(0x100, &v, 8);
    EXPECT_EQ(v, 0u);
}

TEST(DurableStoreTest, BufferedCommitSurvivesCrashAfterDrain)
{
    DurableStore store(AddrRange(0, oneMiB));
    store.writeVolatileT<std::uint64_t>(0x100, 42);
    store.commitLine(0x100, 100, 500);
    const CrashOutcome out = store.crash(500, {});
    EXPECT_EQ(out.linesDrained, 1u);
    EXPECT_EQ(out.linesLost, 0u);
    std::uint64_t v = 0;
    store.readDurable(0x100, &v, 8);
    EXPECT_EQ(v, 42u);
}

TEST(DurableStoreTest, DrainToRetiresCompletedWrites)
{
    DurableStore store(AddrRange(0, oneMiB));
    store.writeVolatileT<std::uint64_t>(0x100, 7);
    store.writeVolatileT<std::uint64_t>(0x200, 8);
    store.commitLine(0x100, 100, 300);
    store.commitLine(0x200, 100, 900);
    store.drainTo(300);
    EXPECT_EQ(store.inflightLines(), 1u);
    std::uint64_t v = 0;
    store.readDurable(0x100, &v, 8);
    EXPECT_EQ(v, 7u);
    store.readDurable(0x200, &v, 8);
    EXPECT_EQ(v, 0u);
}

TEST(DurableStoreTest, TornStorePersistsPrefixOfAWord)
{
    const std::uint64_t old_val = 0x1111222233334444ull;
    const std::uint64_t new_val = 0xaaaabbbbccccddddull;
    DurableStore store(AddrRange(0, oneMiB));
    store.writeDurableT<std::uint64_t>(0x100, old_val);
    store.writeVolatileT<std::uint64_t>(0x100, new_val);
    store.commitLine(0x100, 100, 500);

    const CrashOutcome out = store.crash(200, {true, 7});
    EXPECT_EQ(out.linesLost, 1u);
    EXPECT_EQ(out.tornWords, 1u);

    std::uint64_t v = 0;
    store.readDurable(0x100, &v, 8);
    // A 1–7 byte prefix of the in-flight store persisted, the rest is
    // the old durable value: neither old nor new — a torn store.
    EXPECT_NE(v, old_val);
    EXPECT_NE(v, new_val);
    bool is_prefix_mix = false;
    for (unsigned bytes = 1; bytes < 8; ++bytes) {
        const std::uint64_t mask =
            (std::uint64_t{1} << (8 * bytes)) - 1;
        if (v == ((old_val & ~mask) | (new_val & mask)))
            is_prefix_mix = true;
    }
    EXPECT_TRUE(is_prefix_mix) << std::hex << v;
}

TEST(DurableStoreTest, TornStoreDeterministicAcrossRuns)
{
    auto run = [](std::uint64_t seed) {
        DurableStore store(AddrRange(0, oneMiB));
        for (int i = 0; i < 6; ++i) {
            store.writeVolatileT<std::uint64_t>(0x1000 + i * 64,
                                                0xff00 + i);
            store.commitLine(0x1000 + i * 64, 100, 500 + i);
        }
        store.crash(200, {true, seed});
        std::uint64_t img[6];
        for (int i = 0; i < 6; ++i)
            store.readDurable(0x1000 + i * 64, &img[i], 8);
        return std::vector<std::uint64_t>(img, img + 6);
    };
    EXPECT_EQ(run(3), run(3));
    EXPECT_NE(run(3), run(4));
}

TEST(DurableStoreTest, CommitAllFlushesEverything)
{
    DurableStore store(AddrRange(0, oneMiB));
    for (int i = 0; i < 10; ++i)
        store.writeVolatileT<std::uint64_t>(0x1000 + i * 64, i);
    EXPECT_EQ(store.pendingLines(), 10u);
    store.commitAll();
    EXPECT_EQ(store.pendingLines(), 0u);
    for (int i = 0; i < 10; ++i) {
        std::uint64_t v = 99;
        store.readDurable(0x1000 + i * 64, &v, 8);
        EXPECT_EQ(v, static_cast<std::uint64_t>(i));
    }
}

} // namespace
} // namespace kindle::mem
