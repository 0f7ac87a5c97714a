#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "base/random.hh"
#include "mem/backing_store.hh"
#include "mem/nvm_media.hh"

namespace kindle::mem
{
namespace
{

TEST(BackingStoreTest, ReadsZeroFromHoles)
{
    BackingStore store(AddrRange(0, oneMiB));
    EXPECT_EQ(store.readT<std::uint64_t>(0x1000), 0u);
    EXPECT_EQ(store.linesHeld(), 0u);
}

TEST(BackingStoreTest, WriteReadRoundTrip)
{
    BackingStore store(AddrRange(0, oneMiB));
    store.writeT<std::uint64_t>(0x1008, 0xdeadbeefcafef00dull);
    EXPECT_EQ(store.readT<std::uint64_t>(0x1008),
              0xdeadbeefcafef00dull);
    EXPECT_EQ(store.linesHeld(), 1u);
}

TEST(BackingStoreTest, CrossPageAccess)
{
    BackingStore store(AddrRange(0, oneMiB));
    const char msg[] = "hello across the page boundary";
    store.write(pageSize - 8, msg, sizeof(msg));
    char out[sizeof(msg)] = {};
    store.read(pageSize - 8, out, sizeof(msg));
    EXPECT_STREQ(out, msg);
    // The last line of one frame and the first of the next.
    EXPECT_EQ(store.linesHeld(), 2u);
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
    // A second write to a held line holds nothing new.
    store.writeT<std::uint64_t>(base + leaf * pageSize + 16, 5);
    EXPECT_EQ(store.linesHeld(), frames.size());
    for (const std::uint64_t f : frames)
        EXPECT_EQ(store.readT<std::uint64_t>(base + f * pageSize + 8), f + 1);
    // Reads of untouched frames, in touched and untouched leaves,
    // hold nothing.
    EXPECT_EQ(store.readT<std::uint64_t>(base + pageSize), 0u);
    EXPECT_EQ(store.readT<std::uint64_t>(base + (leaf + 7) * pageSize),
              0u);
    EXPECT_EQ(store.linesHeld(), frames.size());

    store.clear();
    EXPECT_EQ(store.linesHeld(), 0u);
    for (const std::uint64_t f : frames)
        EXPECT_EQ(store.readT<std::uint64_t>(base + f * pageSize + 8), 0u);
    store.writeT<std::uint8_t>(base + (2 * leaf + 1) * pageSize - 1, 9);
    EXPECT_EQ(store.linesHeld(), 1u);
    EXPECT_EQ(
        store.readT<std::uint8_t>(base + (2 * leaf + 1) * pageSize - 1), 9);
}

TEST(BackingStoreTest, EveryCapacityStepKeepsTheLines)
{
    BackingStore store(AddrRange(0, oneMiB));
    const Addr frame = 5 * pageSize;
    // 37 is odd, so i * 37 mod 64 visits every line once, inserting
    // before, between and after the held ones; the 64 inserts pass
    // every capacity from 1 to 64.
    const auto lineAt = [](unsigned i) { return (i * 37) % linesPerPage; };
    for (unsigned i = 0; i < linesPerPage; ++i) {
        store.writeT<std::uint64_t>(frame + lineAt(i) * lineSize + 8,
                                    1000 + lineAt(i));
        EXPECT_EQ(store.linesHeld(), i + 1);
        for (unsigned j = 0; j <= i; ++j) {
            ASSERT_EQ(store.readT<std::uint64_t>(
                          frame + lineAt(j) * lineSize + 8),
                      1000 + lineAt(j))
                << "line " << lineAt(j) << " after " << i + 1
                << " inserts";
        }
    }
    std::vector<std::uint8_t> page(pageSize);
    store.read(frame, page.data(), pageSize);
    for (unsigned l = 0; l < linesPerPage; ++l) {
        std::uint64_t v = 0;
        std::memcpy(&v, page.data() + l * lineSize + 8, 8);
        EXPECT_EQ(v, 1000 + l);
    }
}

TEST(BackingStoreTest, ZeroWritesOverwriteHeldLinesAndSkipTheRest)
{
    BackingStore store(AddrRange(0, oneMiB));
    store.writeT<std::uint64_t>(0x2008, 0xffu);
    store.writeT<std::uint64_t>(0x2008, 0);
    EXPECT_EQ(store.readT<std::uint64_t>(0x2008), 0u);
    // The overwritten line stays held; a zero page held nothing new.
    const std::vector<std::uint8_t> zeros(pageSize, 0);
    store.write(0x3000, zeros.data(), pageSize);
    EXPECT_EQ(store.linesHeld(), 1u);
}

TEST(BackingStoreDifferentialTest, MatchesFlatArray)
{
    // Two full radix leaves plus a one-frame third, away from zero,
    // checked byte for byte against a flat array.
    constexpr std::uint64_t leaf = BackingStore::leafFrames;
    const std::uint64_t bytes = (2 * leaf + 1) * pageSize;
    const AddrRange range = AddrRange::withSize(3 * oneGiB, bytes);
    BackingStore store(range);
    std::vector<std::uint8_t> ref(bytes, 0);
    std::vector<bool> nonZero(bytes / lineSize, false);

    Random rng(7);
    // Most accesses meet in a few frames at the leaf edges, so writes
    // keep landing on held and unheld lines of the same frame.
    const std::vector<std::uint64_t> hot = {0, 1, leaf - 1, leaf, 2 * leaf};
    std::vector<std::uint8_t> buf, got;
    for (int op = 0; op < 20000; ++op) {
        const unsigned kind = static_cast<unsigned>(rng.uniform(100));
        if (kind == 0) {
            store.clear();
            std::fill(ref.begin(), ref.end(), 0);
            std::fill(nonZero.begin(), nonZero.end(), false);
            continue;
        }
        const std::uint64_t n =
            rng.uniform(4) == 0 ? 1 + rng.uniform(2 * pageSize)
                                : 1 + rng.uniform(2 * lineSize);
        const std::uint64_t frame = rng.uniform(4) == 0
                                        ? rng.uniform(2 * leaf + 1)
                                        : hot[rng.uniform(hot.size())];
        const std::uint64_t off =
            std::min(frame * pageSize + rng.uniform(pageSize), bytes - n);
        const Addr addr = range.start() + off;
        if (kind < 50) {
            got.assign(n, 0xa5);
            store.read(addr, got.data(), n);
            ASSERT_TRUE(std::equal(got.begin(), got.end(),
                                   ref.begin() + off))
                << "read of " << n << " at +" << off << ", op " << op;
            continue;
        }
        // All zero, sparse (one non-zero byte in ~100) or random.
        buf.assign(n, 0);
        const unsigned payload = static_cast<unsigned>(rng.uniform(3));
        for (std::uint64_t i = 0; payload != 0 && i < n; ++i) {
            if (payload == 2 || rng.uniform(100) == 0)
                buf[i] = static_cast<std::uint8_t>(rng.next());
        }
        store.write(addr, buf.data(), n);
        for (std::uint64_t i = 0; i < n; ++i) {
            ref[off + i] = buf[i];
            if (buf[i] != 0)
                nonZero[(off + i) / lineSize] = true;
        }
    }
    got.assign(bytes, 0xa5);
    store.read(range.start(), got.data(), bytes);
    EXPECT_TRUE(got == ref);
    EXPECT_EQ(store.linesHeld(),
              static_cast<std::size_t>(
                  std::count(nonZero.begin(), nonZero.end(), true)));
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

TEST(DurableStoreTest, CommitLinesThenDrainFlushesEverything)
{
    DurableStore store(AddrRange(0, oneMiB));
    for (int i = 0; i < 10; ++i)
        store.writeVolatileT<std::uint64_t>(0x1000 + i * 64, i);
    EXPECT_EQ(store.pendingLines(), 10u);
    // Half the lines go through the controller buffer, half are
    // confirmed by the device at once.
    for (int i = 0; i < 10; ++i) {
        if (i % 2)
            store.commitLine(0x1000 + i * 64, 100, 200 + i);
        else
            store.commitLineImmediate(0x1000 + i * 64);
    }
    EXPECT_EQ(store.pendingLines(), 0u);
    EXPECT_EQ(store.inflightLines(), 5u);
    store.drainTo(300);
    EXPECT_EQ(store.inflightLines(), 0u);
    for (int i = 0; i < 10; ++i) {
        std::uint64_t v = 99;
        store.readDurable(0x1000 + i * 64, &v, 8);
        EXPECT_EQ(v, static_cast<std::uint64_t>(i));
    }
}

/** Byte @p i of a recognisable full line. */
std::uint8_t
patternByte(unsigned i)
{
    return static_cast<std::uint8_t>(0xa0 + i);
}

/** A full line of patternByte() in the controller buffer, then an
 *  8-byte store to its first word. */
DurableStore
storeOverInflightLine()
{
    DurableStore store(AddrRange(0, oneMiB));
    std::array<std::uint8_t, lineSize> line{};
    for (unsigned i = 0; i < lineSize; ++i)
        line[i] = patternByte(i);
    store.writeVolatile(0x100, line.data(), lineSize);
    store.commitLine(0x100, 100, 1000);
    store.writeVolatileT<std::uint64_t>(0x100, 0x55);
    return store;
}

TEST(DurableStoreTest, PartialStoreOverInflightLineKeepsBufferedBytes)
{
    DurableStore store = storeOverInflightLine();
    // The overlay is seeded from the buffered copy, not from media.
    EXPECT_EQ(store.readT<std::uint8_t>(0x108), patternByte(8));
    EXPECT_EQ(store.readT<std::uint64_t>(0x100), 0x55u);

    store.drainTo(2000);
    store.commitLine(0x100, 2000, 3000);
    store.drainTo(3000);
    EXPECT_EQ(store.pendingLines(), 0u);
    EXPECT_EQ(store.inflightLines(), 0u);
    std::uint8_t b = 0;
    store.readDurable(0x108, &b, 1);
    EXPECT_EQ(b, patternByte(8));
    std::uint64_t w = 0;
    store.readDurable(0x100, &w, 8);
    EXPECT_EQ(w, 0x55u);
}

TEST(DurableStoreTest, ImmediateCommitPersistsNewestCopy)
{
    DurableStore store = storeOverInflightLine();
    store.commitLineImmediate(0x100);
    EXPECT_EQ(store.pendingLines(), 0u);
    EXPECT_EQ(store.inflightLines(), 0u);
    std::uint64_t w = 0;
    store.readDurable(0x100, &w, 8);
    EXPECT_EQ(w, 0x55u);
    std::uint8_t b = 0;
    store.readDurable(0x108, &b, 1);
    EXPECT_EQ(b, patternByte(8));
}

TEST(DurableStoreTest, DrainPersistsNewestCopy)
{
    // A second writeback while the first is still buffered: the drain
    // persists both, the newer copy last.
    DurableStore store = storeOverInflightLine();
    store.commitLine(0x100, 200, 1500);
    EXPECT_EQ(store.pendingLines(), 0u);
    EXPECT_EQ(store.inflightLines(), 1u);
    store.drainTo(1500);
    EXPECT_EQ(store.inflightLines(), 0u);
    std::uint64_t w = 0;
    store.readDurable(0x100, &w, 8);
    EXPECT_EQ(w, 0x55u);
    std::uint8_t b = 0;
    store.readDurable(0x108, &b, 1);
    EXPECT_EQ(b, patternByte(8));
}

/** Media holds storeOverInflightLine()'s first, fully buffered copy. */
void
expectFirstCopyOnMedia(const DurableStore &store)
{
    std::array<std::uint8_t, lineSize> media{};
    store.readDurable(0x100, media.data(), lineSize);
    for (unsigned i = 0; i < lineSize; ++i)
        ASSERT_EQ(media[i], patternByte(i)) << "byte " << i;
}

TEST(DurableStoreTest, OlderBufferedCopyDrainsAtItsOwnTick)
{
    // The buffered copy (drain tick 1000) and a newer one (0x55 over
    // its first word, drain tick 1500) share the line.
    for (const bool crash_between : {false, true}) {
        DurableStore store = storeOverInflightLine();
        store.commitLine(0x100, 200, 1500);
        EXPECT_EQ(store.inflightLines(), 1u);
        store.drainTo(1000);
        EXPECT_EQ(store.inflightLines(), 1u);
        EXPECT_EQ(store.readT<std::uint64_t>(0x100), 0x55u);
        expectFirstCopyOnMedia(store);

        if (crash_between) {
            // Only the newer copy is lost; the older one had landed.
            const CrashOutcome out = store.crash(1200, {});
            EXPECT_EQ(out.linesLost, 1u);
            expectFirstCopyOnMedia(store);
            continue;
        }
        store.drainTo(1499);
        EXPECT_EQ(store.inflightLines(), 1u);
        store.drainTo(1500);
        EXPECT_EQ(store.inflightLines(), 0u);
        std::uint64_t w = 0;
        store.readDurable(0x100, &w, 8);
        EXPECT_EQ(w, 0x55u);
        std::uint8_t b = 0;
        store.readDurable(0x108, &b, 1);
        EXPECT_EQ(b, patternByte(8));
    }
}

TEST(DurableStoreTest, CrashWithoutDrainKeepsOlderCopyDrainedByThen)
{
    // No drainTo before the power cut: the crash itself lands the copy
    // whose tick has passed and loses the newer one.
    DurableStore store = storeOverInflightLine();
    store.commitLine(0x100, 200, 1500);
    const CrashOutcome out = store.crash(1200, {});
    EXPECT_EQ(out.linesLost, 1u);
    expectFirstCopyOnMedia(store);
}

/** Media faults on @p range as (line, error bits), in line order. */
std::vector<std::pair<Addr, unsigned>>
faultyLines(const NvmMediaModel &media, const AddrRange &range)
{
    std::vector<std::pair<Addr, unsigned>> out;
    media.forEachFaultyLine(range, [&](Addr line, unsigned bits) {
        out.emplace_back(line, bits);
    });
    return out;
}

/** What retiring one set of buffered lines left on media. */
struct RetireOutcome
{
    std::vector<std::pair<Addr, unsigned>> faults;
    double lineWrites = 0;
    double transientFlips = 0;
    CrashOutcome crash;
};

/**
 * Buffer the same 256 lines in the commit order @p order gives, then
 * retire them with drainTo() or crash().  The media model draws a flip
 * per retired line in retire order, so its faults fingerprint it.
 */
RetireOutcome
retireInCommitOrder(const std::function<unsigned(unsigned)> &order,
                    bool by_crash)
{
    constexpr unsigned lines = 256;
    const AddrRange range(3 * oneGiB, 3 * oneGiB + oneMiB);
    fault::MediaFaultPlan plan;
    plan.bitFlipRate = 0.5;
    NvmMediaModel media(range, plan);
    DurableStore store(range);
    store.attachMedia(&media);
    for (unsigned i = 0; i < lines; ++i) {
        // Every other line of a few frames; even lines drain by 100,
        // odd ones at 300.
        const unsigned k = order(i);
        const Addr line = range.start() + Addr(k) * 2 * lineSize;
        store.writeVolatileT<std::uint64_t>(line, 0x1000 + k);
        store.commitLine(line, 0, k % 2 ? 300 : 100);
    }
    RetireOutcome out;
    if (by_crash) {
        out.crash = store.crash(200, {});
    } else {
        store.drainTo(100);
        store.drainTo(300);
    }
    EXPECT_EQ(store.inflightLines(), 0u);
    out.faults = faultyLines(media, range);
    out.lineWrites = media.stats().scalarValue("lineWrites");
    out.transientFlips = media.stats().scalarValue("transientFlips");
    return out;
}

void
expectSameRetireOrder(bool by_crash)
{
    const auto ascending =
        retireInCommitOrder([](unsigned i) { return i; }, by_crash);
    const auto descending =
        retireInCommitOrder([](unsigned i) { return 255 - i; }, by_crash);
    const auto shuffled = retireInCommitOrder(
        [](unsigned i) { return (i * 97) % 256; }, by_crash);
    EXPECT_GT(ascending.transientFlips, 0);
    for (const RetireOutcome *other : {&descending, &shuffled}) {
        EXPECT_EQ(other->faults, ascending.faults);
        EXPECT_EQ(other->lineWrites, ascending.lineWrites);
        EXPECT_EQ(other->transientFlips, ascending.transientFlips);
        EXPECT_EQ(other->crash.linesDrained, ascending.crash.linesDrained);
        EXPECT_EQ(other->crash.linesLost, ascending.crash.linesLost);
    }
}

TEST(DurableStoreTest, DrainRetiresInAddressOrderWhateverTheCommitOrder)
{
    expectSameRetireOrder(false);
}

TEST(DurableStoreTest, CrashRetiresInAddressOrderWhateverTheCommitOrder)
{
    expectSameRetireOrder(true);
}

// ---- Differential test against a map-only reference store --------

/**
 * The reference: the overlay and the controller buffer as maps probed
 * on every access, media as one flat byte image, and the newest copy
 * of a line winning wherever two meet.  The buffer keeps every copy of
 * a line in commit order, and each reaches media at its own tick;
 * lines drained together reach it in address order.  It drives its
 * own media model through the same calls in the same order,
 * so the two models' seeded draws and counters must agree.
 */
class RefStore
{
  public:
    RefStore(AddrRange range, NvmMediaModel *media)
        : range(range), image(range.size()), media(media)
    {}

    void
    writeVolatile(Addr addr, const std::uint8_t *src, std::uint64_t n)
    {
        for (; n > 0; ++addr, ++src, --n) {
            const Addr line = roundDown(addr, lineSize);
            auto it = pending.find(line);
            if (it == pending.end()) {
                Line seed{};
                if (const auto fit = inflight.find(line);
                    fit != inflight.end()) {
                    seed = fit->second.back().data;
                } else {
                    seed = mediaLine(line);
                }
                it = pending.emplace(line, seed).first;
            }
            it->second[addr - line] = *src;
        }
    }

    void
    writeDurable(Addr addr, const std::uint8_t *src, std::uint64_t n)
    {
        std::memcpy(at(addr), src, n);
        if (media)
            media->onRangeWrite(addr, n);
    }

    /** Line by line: the media model counts one decode per line. */
    void
    read(Addr addr, std::uint8_t *dst, std::uint64_t n)
    {
        while (n > 0) {
            const Addr line = roundDown(addr, lineSize);
            const std::uint64_t chunk =
                std::min(n, lineSize - (addr - line));
            if (const auto it = pending.find(line); it != pending.end())
                std::memcpy(dst, &it->second[addr - line], chunk);
            else if (const auto fit = inflight.find(line);
                     fit != inflight.end())
                std::memcpy(dst, &fit->second.back().data[addr - line],
                            chunk);
            else
                readDurable(addr, dst, chunk);
            addr += chunk;
            dst += chunk;
            n -= chunk;
        }
    }

    void
    readDurable(Addr addr, std::uint8_t *dst, std::uint64_t n)
    {
        std::memcpy(dst, at(addr), n);
        if (media)
            media->filterRead(addr, dst, n);
    }

    /** A new copy queues behind the line's buffered ones and lands
     *  no earlier than the newest of them. */
    void
    commitLine(Addr line, Tick now, Tick drain_at)
    {
        drainTo(now);
        if (const auto it = pending.find(line); it != pending.end()) {
            std::vector<Inflight> &copies = inflight[line];
            if (!copies.empty())
                drain_at = std::max(drain_at, copies.back().drainAt);
            copies.push_back({it->second, drain_at});
            pending.erase(it);
        } else if (const auto fit = inflight.find(line);
                   fit != inflight.end()) {
            Tick &at = fit->second.back().drainAt;
            at = std::max(at, drain_at);
        }
    }

    void
    commitLineImmediate(Addr line)
    {
        if (const auto it = inflight.find(line); it != inflight.end()) {
            for (const Inflight &copy : it->second)
                toMedia(line, copy.data);
            inflight.erase(it);
        }
        if (const auto it = pending.find(line); it != pending.end()) {
            toMedia(line, it->second);
            pending.erase(it);
        }
    }

    void
    drainTo(Tick now)
    {
        for (auto it = inflight.begin(); it != inflight.end();) {
            if (drainCopies(it->first, it->second, now))
                it = inflight.erase(it);
            else
                ++it;
        }
    }

    /** Torn mode: a seeded lost line that differs from media in
     *  some word lands a 1–7 byte prefix of one such word. */
    CrashOutcome
    crash(Tick now, const PowerLossModel &model = {})
    {
        CrashOutcome out;
        std::vector<Addr> lost;
        for (auto &[line, copies] : inflight) {
            if (drainCopies(line, copies, now)) {
                ++out.linesDrained;
            } else {
                ++out.linesLost;
                lost.push_back(line);
            }
        }
        if (model.tornStore && !lost.empty()) {
            Random rng(model.seed);
            const std::size_t start = rng.uniform(lost.size());
            for (std::size_t k = 0; k < lost.size() && !out.tornWords; ++k) {
                const Addr line = lost[(start + k) % lost.size()];
                const Line &oldest = inflight.at(line).front().data;
                std::vector<std::uint64_t> words;
                for (std::uint64_t off = 0; off < lineSize; off += 8) {
                    if (std::memcmp(oldest.data() + off, at(line + off), 8))
                        words.push_back(off);
                }
                if (words.empty())
                    continue;
                const std::uint64_t off = words[rng.uniform(words.size())];
                std::memcpy(at(line + off), oldest.data() + off,
                            1 + rng.uniform(7));
                if (media)
                    media->onLineWrite(line);
                ++out.tornWords;
            }
        }
        inflight.clear();
        pending.clear();
        return out;
    }

    std::size_t pendingLines() const { return pending.size(); }
    std::size_t inflightLines() const { return inflight.size(); }

  private:
    using Line = std::array<std::uint8_t, lineSize>;

    struct Inflight
    {
        Line data{};
        Tick drainAt = 0;
    };

    std::uint8_t *at(Addr addr) { return &image[addr - range.start()]; }

    /** Land @p line's copies drained by @p now, oldest first; true
     *  once none is left. */
    bool
    drainCopies(Addr line, std::vector<Inflight> &copies, Tick now)
    {
        while (!copies.empty() && copies.front().drainAt <= now) {
            toMedia(line, copies.front().data);
            copies.erase(copies.begin());
        }
        return copies.empty();
    }

    Line
    mediaLine(Addr line)
    {
        Line out{};
        readDurable(line, out.data(), lineSize);
        return out;
    }

    void
    toMedia(Addr line, const Line &data)
    {
        std::memcpy(at(line), data.data(), lineSize);
        if (media)
            media->onLineWrite(line);
    }

    AddrRange range;
    std::vector<std::uint8_t> image;
    NvmMediaModel *media;
    std::unordered_map<Addr, Line> pending;
    /** Each line's buffered copies, oldest first; walked in address
     *  order, the order the store retires lines in. */
    std::map<Addr, std::vector<Inflight>> inflight;
};

void
runDurableDifferential(bool with_media, std::uint64_t seed)
{
    // Above zero like the NVM range, and wide enough for four radix
    // leaves of line masks.
    const AddrRange range(3 * oneGiB, 3 * oneGiB + 8 * oneMiB);
    fault::MediaFaultPlan plan;
    plan.bitFlipRate = 0.05;
    plan.writeEndurance = 40;
    plan.seed = seed;
    NvmMediaModel got_media(range, plan);
    NvmMediaModel want_media(range, plan);

    DurableStore store(range);
    RefStore ref(range, with_media ? &want_media : nullptr);
    if (with_media)
        store.attachMedia(&got_media);

    Random rng(seed);
    // Four hot lines (first and last among them) in three frames per
    // leaf, so stores, writebacks and drains keep meeting on a line.
    const auto pick = [&](std::uint64_t span) {
        const std::uint64_t frame =
            rng.uniform(4) * BackingStore::leafFrames * pageSize +
            rng.uniform(3) * pageSize;
        const Addr addr = range.start() + frame +
                          rng.uniform(4) * 21 * lineSize +
                          rng.uniform(lineSize);
        return std::min<Addr>(addr, range.end() - span);
    };
    std::vector<std::uint8_t> got, want;
    Tick now = 0;
    for (int op = 0; op < 40000; ++op) {
        now += rng.uniform(200);
        const unsigned kind = static_cast<unsigned>(rng.uniform(100));
        const std::uint64_t n = 1 + rng.uniform(150);
        const Addr addr = pick(n);
        const Addr line = roundDown(addr, lineSize);
        got.assign(n, 0);
        want.assign(n, 0);
        if (kind < 35) {
            for (std::uint64_t i = 0; i < n; ++i)
                got[i] = static_cast<std::uint8_t>(rng.next());
            store.writeVolatile(addr, got.data(), n);
            ref.writeVolatile(addr, got.data(), n);
        } else if (kind < 38) {
            for (std::uint64_t i = 0; i < n; ++i)
                got[i] = static_cast<std::uint8_t>(rng.next());
            store.writeDurable(addr, got.data(), n);
            ref.writeDurable(addr, got.data(), n);
        } else if (kind < 58) {
            store.read(addr, got.data(), n);
            ref.read(addr, want.data(), n);
            ASSERT_EQ(got, want) << "read, op " << op;
        } else if (kind < 63) {
            store.readDurable(addr, got.data(), n);
            ref.readDurable(addr, want.data(), n);
            ASSERT_EQ(got, want) << "readDurable, op " << op;
        } else if (kind < 80) {
            const Tick drain_at = now + rng.uniform(3000);
            store.commitLine(line, now, drain_at);
            ref.commitLine(line, now, drain_at);
        } else if (kind < 90) {
            store.commitLineImmediate(line);
            ref.commitLineImmediate(line);
        } else if (kind < 99) {
            store.drainTo(now);
            ref.drainTo(now);
        } else {
            const CrashOutcome a = store.crash(now, {});
            const CrashOutcome b = ref.crash(now);
            ASSERT_EQ(a.linesDrained, b.linesDrained) << "op " << op;
            ASSERT_EQ(a.linesLost, b.linesLost) << "op " << op;
            ASSERT_EQ(a.tornWords, 0u);
        }
        ASSERT_EQ(store.pendingLines(), ref.pendingLines()) << "op " << op;
        ASSERT_EQ(store.inflightLines(), ref.inflightLines())
            << "op " << op;
    }
    for (const char *stat :
         {"lineWrites", "transientFlips", "stuckBits", "demandCorrections",
          "uncorrectableReads", "framesExhausted"}) {
        EXPECT_EQ(got_media.stats().scalarValue(stat),
                  want_media.stats().scalarValue(stat))
            << stat;
    }
    if (with_media) {
        EXPECT_GT(want_media.stats().scalarValue("lineWrites"), 1000);
        EXPECT_GT(want_media.stats().scalarValue("uncorrectableReads"), 0);
    }
}

/**
 * A clwb storm: thousands of lines in flight at once, several copies
 * of some, drain ticks far ahead of the commits.  Partial drains, then
 * a torn crash mid-drain, must leave media, wear and the torn victim
 * exactly as the reference does.  (The benchmark never buffers more
 * than a few lines, so only this test covers a large buffer.)
 */
void
runDurableStorm(std::uint64_t seed)
{
    const AddrRange range(3 * oneGiB, 3 * oneGiB + 16 * oneMiB);
    fault::MediaFaultPlan plan;
    plan.bitFlipRate = 0.02;
    plan.writeEndurance = 6;
    plan.seed = seed;
    NvmMediaModel got_media(range, plan);
    NvmMediaModel want_media(range, plan);
    DurableStore store(range);
    RefStore ref(range, &want_media);
    store.attachMedia(&got_media);

    Random rng(seed);
    // 6000 lines scattered over the whole range, a few hundred of
    // them hot enough to be committed again while still buffered.
    std::vector<Addr> lines;
    for (int i = 0; i < 6000; ++i)
        lines.push_back(range.start() +
                        rng.uniform(range.size() / lineSize) * lineSize);
    std::vector<std::uint8_t> got(lineSize), want(lineSize);
    Tick now = 0;
    std::uint64_t max_inflight = 0;
    for (int round = 0; round < 3; ++round) {
        for (int op = 0; op < 12000; ++op) {
            now += rng.uniform(3);
            const Addr line = rng.uniform(4) == 0
                                  ? lines[rng.uniform(300)]
                                  : lines[rng.uniform(lines.size())];
            const unsigned kind = static_cast<unsigned>(rng.uniform(100));
            if (kind < 55) {
                const std::uint64_t off = rng.uniform(lineSize - 8);
                for (std::uint64_t i = 0; i < 8; ++i)
                    got[i] = static_cast<std::uint8_t>(rng.next());
                store.writeVolatile(line + off, got.data(), 8);
                ref.writeVolatile(line + off, got.data(), 8);
                // Drains land far ahead: nothing retires for a while.
                const Tick drain_at = now + 40000 + rng.uniform(20000);
                store.commitLine(line, now, drain_at);
                ref.commitLine(line, now, drain_at);
            } else if (kind < 80) {
                store.read(line, got.data(), lineSize);
                ref.read(line, want.data(), lineSize);
                ASSERT_EQ(got, want) << "round " << round << " op " << op;
            } else if (kind < 83) {
                store.commitLineImmediate(line);
                ref.commitLineImmediate(line);
            } else {
                // A repeat writeback restarts a buffered line's clock.
                const Tick drain_at = now + rng.uniform(60000);
                store.commitLine(line, now, drain_at);
                ref.commitLine(line, now, drain_at);
            }
            ASSERT_EQ(store.inflightLines(), ref.inflightLines())
                << "round " << round << " op " << op;
            max_inflight = std::max<std::uint64_t>(max_inflight,
                                                   store.inflightLines());
        }
        ASSERT_EQ(store.pendingLines(), ref.pendingLines());
        // Retire part of the buffer, then lose power mid-drain.
        now += 45000;
        store.drainTo(now);
        ref.drainTo(now);
        ASSERT_EQ(store.inflightLines(), ref.inflightLines());
        now += 5000;
        const PowerLossModel torn{true, seed + round};
        const CrashOutcome a = store.crash(now, torn);
        const CrashOutcome b = ref.crash(now, torn);
        EXPECT_EQ(a.linesDrained, b.linesDrained) << "round " << round;
        EXPECT_EQ(a.linesLost, b.linesLost) << "round " << round;
        EXPECT_EQ(a.tornWords, 1u) << "round " << round;
        EXPECT_EQ(b.tornWords, 1u) << "round " << round;
        EXPECT_GT(a.linesLost, 100u) << "round " << round;
        for (const Addr line : lines) {
            store.readDurable(line, got.data(), lineSize);
            ref.readDurable(line, want.data(), lineSize);
            ASSERT_EQ(got, want) << "media at " << line << ", round "
                                 << round;
        }
    }
    EXPECT_GT(max_inflight, 2000u);
    for (const char *stat :
         {"lineWrites", "transientFlips", "stuckBits", "demandCorrections",
          "uncorrectableReads", "framesExhausted"}) {
        EXPECT_EQ(got_media.stats().scalarValue(stat),
                  want_media.stats().scalarValue(stat))
            << stat;
    }
    EXPECT_GT(want_media.stats().scalarValue("framesExhausted"), 0);
}

TEST(DurableStoreDifferentialTest, ClwbStormMatchesMapReference)
{
    runDurableStorm(33);
}

TEST(DurableStoreDifferentialTest, MatchesMapReference)
{
    runDurableDifferential(false, 31);
}

TEST(DurableStoreDifferentialTest, MatchesMapReferenceWithMedia)
{
    runDurableDifferential(true, 32);
}

} // namespace
} // namespace kindle::mem
