#include <gtest/gtest.h>

#include <vector>

#include "ssp/ssp_cache.hh"

namespace kindle::ssp
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
          layout(os::NvmLayout::standard(memory.nvmRange())),
          cache(kmem, layout)
    {}

    Addr
    poolFrame(unsigned i) const
    {
        return layout.userPool + Addr(i) * pageSize;
    }

    sim::Simulation sim;
    mem::HybridMemory memory;
    cache::Hierarchy hier;
    os::KernelMem kmem;
    os::NvmLayout layout;
    SspCache cache;
};

SspCacheEntry
makeEntry(Addr orig, Addr shadow)
{
    SspCacheEntry e;
    e.magic = SspCacheEntry::magicValue;
    e.flags = SspCacheEntry::flagAllocated;
    e.origFrame = orig;
    e.shadowFrame = shadow;
    return e;
}

TEST(SspCacheTest, WriteReadRoundTrip)
{
    Rig rig;
    const Addr frame = rig.poolFrame(3);
    rig.cache.write(frame, makeEntry(frame, rig.poolFrame(4)));
    const SspCacheEntry got = rig.cache.read(frame);
    EXPECT_TRUE(got.allocated());
    EXPECT_EQ(got.origFrame, frame);
    EXPECT_EQ(got.shadowFrame, rig.poolFrame(4));
}

TEST(SspCacheTest, EntriesAreIndexedByFrame)
{
    Rig rig;
    rig.cache.write(rig.poolFrame(0),
                    makeEntry(rig.poolFrame(0), rig.poolFrame(10)));
    rig.cache.write(rig.poolFrame(1),
                    makeEntry(rig.poolFrame(1), rig.poolFrame(11)));
    EXPECT_EQ(rig.cache.read(rig.poolFrame(0)).shadowFrame,
              rig.poolFrame(10));
    EXPECT_EQ(rig.cache.read(rig.poolFrame(1)).shadowFrame,
              rig.poolFrame(11));
    EXPECT_EQ(rig.cache.entryAddr(rig.poolFrame(1)) -
                  rig.cache.entryAddr(rig.poolFrame(0)),
              sizeof(SspCacheEntry));
}

TEST(SspCacheTest, MergeBitsFlipsCurrentAndAccumulatesPending)
{
    Rig rig;
    const Addr frame = rig.poolFrame(5);
    rig.cache.write(frame, makeEntry(frame, rig.poolFrame(6)));

    rig.cache.mergeBits(frame, 0x0f, false);
    SspCacheEntry e = rig.cache.read(frame);
    EXPECT_EQ(e.currentBits, 0x0fu);
    EXPECT_EQ(e.pendingBits, 0x0fu);
    EXPECT_FALSE(e.evicted());

    // Flipping the same lines again returns current to 0; pending
    // keeps accumulating until consolidation.
    rig.cache.mergeBits(frame, 0x0f, true);
    e = rig.cache.read(frame);
    EXPECT_EQ(e.currentBits, 0u);
    EXPECT_EQ(e.pendingBits, 0x0fu);
    EXPECT_TRUE(e.evicted());
}

/** The frames forEachTracked() visits, in visit order. */
std::vector<Addr>
tracked(const SspCache &cache)
{
    std::vector<Addr> frames;
    cache.forEachTracked([&](Addr f) { frames.push_back(f); });
    return frames;
}

/** The frames forEachEvicted() visits, in visit order. */
std::vector<Addr>
evicted(const SspCache &cache)
{
    std::vector<Addr> frames;
    cache.forEachEvicted([&](Addr f) { frames.push_back(f); });
    return frames;
}

TEST(SspCacheTest, EvictedSetTracksMarkedFrames)
{
    Rig rig;
    const Addr a = rig.poolFrame(7);
    const Addr b = rig.poolFrame(8);
    rig.cache.write(a, makeEntry(a, rig.poolFrame(20)));
    rig.cache.write(b, makeEntry(b, rig.poolFrame(21)));
    rig.cache.mergeBits(a, 1, true);
    rig.cache.mergeBits(b, 1, false);
    EXPECT_EQ(evicted(rig.cache), std::vector<Addr>{a});

    rig.cache.clearEvicted(a);
    EXPECT_TRUE(evicted(rig.cache).empty());
    EXPECT_EQ(rig.cache.read(a).pendingBits, 0u);
    // Clearing the flag keeps the page tracked with its shadow.
    EXPECT_EQ(rig.cache.shadowOf(a), rig.poolFrame(20));
    EXPECT_EQ(tracked(rig.cache), (std::vector<Addr>{a, b}));
}

TEST(SspCacheTest, ShadowOfFollowsTheLastEntryWritten)
{
    Rig rig;
    const Addr frame = rig.poolFrame(3);
    EXPECT_EQ(rig.cache.shadowOf(frame), 0u);
    // Below the pool and past every written entry read as untracked.
    EXPECT_EQ(rig.cache.shadowOf(0x1000), 0u);
    EXPECT_EQ(rig.cache.shadowOf(rig.poolFrame(1000)), 0u);

    rig.cache.write(frame, makeEntry(frame, rig.poolFrame(40)));
    EXPECT_EQ(rig.cache.shadowOf(frame), rig.poolFrame(40));
    rig.cache.mergeBits(frame, 0x3, true);
    EXPECT_EQ(rig.cache.shadowOf(frame), rig.poolFrame(40));

    // A retired (unallocated) entry untracks the page and its flag.
    rig.cache.write(frame, SspCacheEntry{});
    EXPECT_EQ(rig.cache.shadowOf(frame), 0u);
    EXPECT_TRUE(tracked(rig.cache).empty());
    EXPECT_TRUE(evicted(rig.cache).empty());
}

TEST(SspCacheTest, WalksRunInFrameOrder)
{
    Rig rig;
    // Entries written out of frame order, evicted flags likewise.
    const unsigned order[] = {9, 2, 30, 5, 17, 0};
    for (unsigned i : order) {
        rig.cache.write(rig.poolFrame(i),
                        makeEntry(rig.poolFrame(i), rig.poolFrame(100 + i)));
    }
    for (unsigned i : {17u, 0u, 9u})
        rig.cache.mergeBits(rig.poolFrame(i), 1, true);

    std::vector<Addr> want;
    for (unsigned i : {0u, 2u, 5u, 9u, 17u, 30u})
        want.push_back(rig.poolFrame(i));
    EXPECT_EQ(tracked(rig.cache), want);
    EXPECT_EQ(evicted(rig.cache),
              (std::vector<Addr>{rig.poolFrame(0), rig.poolFrame(9),
                                 rig.poolFrame(17)}));
}

TEST(SspCacheTest, MergeOnUnallocatedEntryPanics)
{
    setErrorsThrow(true);
    Rig rig;
    EXPECT_THROW(rig.cache.mergeBits(rig.poolFrame(9), 1, false),
                 SimError);
    setErrorsThrow(false);
}

TEST(SspCacheTest, NonPoolFramePanics)
{
    setErrorsThrow(true);
    Rig rig;
    EXPECT_THROW(rig.cache.entryAddr(0x1000), SimError);
    setErrorsThrow(false);
}

TEST(SspCacheTest, AccessesChargeSimTime)
{
    Rig rig;
    const Tick t0 = rig.sim.now();
    rig.cache.write(rig.poolFrame(0),
                    makeEntry(rig.poolFrame(0), rig.poolFrame(1)));
    rig.cache.read(rig.poolFrame(0));
    EXPECT_GT(rig.sim.now(), t0);
}

} // namespace
} // namespace kindle::ssp
