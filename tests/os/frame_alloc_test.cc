#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "base/random.hh"
#include "os/bad_frames.hh"
#include "os/frame_alloc.hh"
#include "os/nvm_layout.hh"

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
              // Large enough that NvmLayout's metadata carve leaves a
              // user pool *inside* the device (BadFrameTable asserts
              // device bounds, unlike the allocator).
              p.nvmBytes = 256 * oneMiB;
              return p;
          }()),
          hier(cache::HierarchyParams{}, memory),
          kmem(sim, memory, hier),
          layout(NvmLayout::standard(memory.nvmRange()))
    {}

    sim::Simulation sim;
    mem::HybridMemory memory;
    cache::Hierarchy hier;
    KernelMem kmem;
    NvmLayout layout;
};

TEST(FrameAllocTest, AllocFreeCycle)
{
    Rig rig;
    FrameAllocator alloc("t", AddrRange(0, oneMiB), rig.kmem);
    const Addr a = alloc.alloc();
    const Addr b = alloc.alloc();
    EXPECT_NE(a, b);
    EXPECT_TRUE(alloc.isAllocated(a));
    EXPECT_EQ(alloc.allocatedFrames(), 2u);
    alloc.free(a);
    EXPECT_FALSE(alloc.isAllocated(a));
    EXPECT_EQ(alloc.allocatedFrames(), 1u);
}

TEST(FrameAllocTest, RecyclesFreedFrames)
{
    Rig rig;
    FrameAllocator alloc("t", AddrRange(0, oneMiB), rig.kmem);
    const Addr a = alloc.alloc();
    alloc.free(a);
    EXPECT_EQ(alloc.alloc(), a);
}

TEST(FrameAllocTest, ExhaustionIsFatal)
{
    setErrorsThrow(true);
    Rig rig;
    FrameAllocator alloc("t", AddrRange(0, 4 * pageSize), rig.kmem);
    for (int i = 0; i < 4; ++i)
        alloc.alloc();
    EXPECT_THROW(alloc.alloc(), SimError);
    setErrorsThrow(false);
}

TEST(FrameAllocTest, DoubleFreeIsPanic)
{
    setErrorsThrow(true);
    Rig rig;
    FrameAllocator alloc("t", AddrRange(0, oneMiB), rig.kmem);
    const Addr a = alloc.alloc();
    alloc.free(a);
    EXPECT_THROW(alloc.free(a), SimError);
    setErrorsThrow(false);
}

TEST(FrameAllocTest, PersistentAllocatorChargesTime)
{
    Rig rig;
    FrameAllocator alloc(
        "t", AddrRange::withSize(rig.layout.userPool, oneMiB),
        rig.kmem, rig.layout.allocBitmap);
    const Tick t0 = rig.sim.now();
    alloc.alloc();
    EXPECT_GT(rig.sim.now(), t0);
    EXPECT_EQ(alloc.stats().scalarValue("persistWrites"), 1);
}

TEST(FrameAllocTest, BitmapSurvivesCrashAndRecovers)
{
    Rig rig;
    const AddrRange zone =
        AddrRange::withSize(rig.layout.userPool, oneMiB);
    std::vector<Addr> kept;
    {
        FrameAllocator alloc("t", zone, rig.kmem,
                             rig.layout.allocBitmap);
        kept.push_back(alloc.alloc());
        kept.push_back(alloc.alloc());
        const Addr dropped = alloc.alloc();
        kept.push_back(alloc.alloc());
        alloc.free(dropped);
    }

    // Power loss: volatile structures are gone, the bitmap is not.
    rig.memory.drainWrites(maxTick);
    rig.memory.crash(rig.sim.now(), {});

    FrameAllocator fresh("t", zone, rig.kmem,
                         rig.layout.allocBitmap);
    fresh.recoverFromBitmap();
    EXPECT_EQ(fresh.allocatedFrames(), 3u);
    for (const Addr f : kept)
        EXPECT_TRUE(fresh.isAllocated(f));
    // Freed frame is allocatable again, and recovery starts low.
    const Addr next = fresh.alloc();
    EXPECT_FALSE(std::count(kept.begin(), kept.end(), next));
}

TEST(FrameAllocTest, RecoveryAllocationOrderMatchesFullScan)
{
    // The word-scan fast path must hand out frames in exactly the
    // order of the legacy per-frame scan: holes below the high mark in
    // ascending address order, then the untouched tail.  Build a
    // bitmap with holes scattered across word boundaries, recover it
    // through both regimes, and drain each to exhaustion.
    // Two independent machines (draining one allocator persists its
    // bits, so the regimes cannot share a bitmap), identical history.
    const std::vector<std::uint64_t> holes = {3,  17, 40,  63, 64,
                                              65, 88, 127, 128, 149};
    const auto setup = [&](Rig &rig) {
        const AddrRange zone =
            AddrRange::withSize(rig.layout.userPool, 200 * pageSize);
        FrameAllocator alloc("t", zone, rig.kmem,
                             rig.layout.allocBitmap);
        for (int i = 0; i < 150; ++i)
            alloc.alloc();
        for (const std::uint64_t h : holes)
            alloc.free(zone.start() + h * pageSize);
        rig.memory.drainWrites(maxTick);
        rig.memory.crash(rig.sim.now(), {});
        return zone;
    };
    const auto drain = [](FrameAllocator &alloc) {
        std::vector<Addr> order;
        for (Addr f = alloc.tryAlloc(); f != invalidAddr;
             f = alloc.tryAlloc()) {
            order.push_back(f);
        }
        return order;
    };

    // Fast path: no retirements anywhere.
    Rig rig_fast;
    const AddrRange zone = setup(rig_fast);
    FrameAllocator fast("t", zone, rig_fast.kmem,
                        rig_fast.layout.allocBitmap);
    fast.recoverFromBitmap();
    EXPECT_EQ(fast.allocatedFrames(), 150u - holes.size());
    const std::vector<Addr> fast_order = drain(fast);

    // Legacy per-frame path: a retirement *outside* the zone forces
    // the fallback without perturbing this zone's pool.
    Rig rig_slow;
    const AddrRange zone2 = setup(rig_slow);
    ASSERT_EQ(zone2.start(), zone.start());
    BadFrameTable bad(rig_slow.memory.nvmRange(), rig_slow.kmem,
                      rig_slow.layout.badFrameBitmap);
    ASSERT_TRUE(bad.retire(zone.end()));
    FrameAllocator slow("t", zone, rig_slow.kmem,
                        rig_slow.layout.allocBitmap);
    slow.setBadFrames(&bad);
    slow.recoverFromBitmap();
    EXPECT_EQ(slow.allocatedFrames(), 150u - holes.size());
    const std::vector<Addr> slow_order = drain(slow);

    EXPECT_EQ(fast_order, slow_order);
    // And both equal the documented contract: holes ascending, then
    // the bump tail.
    std::vector<Addr> expect;
    for (const std::uint64_t h : holes)
        expect.push_back(zone.start() + h * pageSize);
    for (std::uint64_t i = 150; i < 200; ++i)
        expect.push_back(zone.start() + i * pageSize);
    EXPECT_EQ(fast_order, expect);
}

TEST(FrameAllocTest, ForEachAllocatedVisitsExactly)
{
    Rig rig;
    FrameAllocator alloc("t", AddrRange(0, oneMiB), rig.kmem);
    const Addr a = alloc.alloc();
    const Addr b = alloc.alloc();
    alloc.free(a);
    std::vector<Addr> seen;
    alloc.forEachAllocated([&](Addr f) { seen.push_back(f); });
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], b);
}

TEST(FrameAllocTest, RetiredFramesAreNeverHandedOut)
{
    Rig rig;
    const AddrRange zone =
        AddrRange::withSize(rig.layout.userPool, 4 * pageSize);
    BadFrameTable bad(rig.memory.nvmRange(), rig.kmem,
                      rig.layout.badFrameBitmap);
    FrameAllocator alloc("t", zone, rig.kmem,
                         rig.layout.allocBitmap);
    alloc.setBadFrames(&bad);

    // Retire the zone's first frame before any allocation: the
    // allocator must step over it and still serve the healthy three.
    ASSERT_TRUE(bad.retire(zone.start()));
    for (int i = 0; i < 3; ++i) {
        const Addr f = alloc.tryAlloc();
        ASSERT_NE(f, invalidAddr);
        EXPECT_NE(f, zone.start());
    }
    EXPECT_EQ(alloc.tryAlloc(), invalidAddr);
    EXPECT_EQ(alloc.freeFrames(), 0u);
}

TEST(FrameAllocTest, FreeOfRetiredFrameIsNotRecycled)
{
    Rig rig;
    const AddrRange zone =
        AddrRange::withSize(rig.layout.userPool, 2 * pageSize);
    BadFrameTable bad(rig.memory.nvmRange(), rig.kmem,
                      rig.layout.badFrameBitmap);
    FrameAllocator alloc("t", zone, rig.kmem,
                         rig.layout.allocBitmap);
    alloc.setBadFrames(&bad);

    // A frame that wears out *while mapped* is retired first and
    // freed later (after migration); the free must quarantine it
    // instead of pushing it back on the free stack.
    const Addr victim = alloc.tryAlloc();
    ASSERT_NE(victim, invalidAddr);
    ASSERT_TRUE(bad.retire(victim));
    alloc.free(victim);
    EXPECT_FALSE(alloc.isAllocated(victim));
    EXPECT_EQ(alloc.freeFrames(), 1u);
    const Addr next = alloc.tryAlloc();
    ASSERT_NE(next, invalidAddr);
    EXPECT_NE(next, victim);
    EXPECT_EQ(alloc.tryAlloc(), invalidAddr);
}

TEST(FrameAllocTest, BitmapRecoveryRespectsRetirements)
{
    Rig rig;
    const AddrRange zone =
        AddrRange::withSize(rig.layout.userPool, 4 * pageSize);
    BadFrameTable bad(rig.memory.nvmRange(), rig.kmem,
                      rig.layout.badFrameBitmap);
    Addr live = 0;
    {
        FrameAllocator alloc("t", zone, rig.kmem,
                             rig.layout.allocBitmap);
        alloc.setBadFrames(&bad);
        live = alloc.tryAlloc();
        const Addr unallocated_bad = alloc.tryAlloc();
        alloc.free(unallocated_bad);
        ASSERT_TRUE(bad.retire(unallocated_bad));
    }

    rig.memory.drainWrites(maxTick);
    rig.memory.crash(rig.sim.now(), {});

    BadFrameTable bad2(rig.memory.nvmRange(), rig.kmem,
                       rig.layout.badFrameBitmap);
    bad2.loadFromNvm();
    EXPECT_EQ(bad2.retiredCount(), 1u);
    FrameAllocator fresh("t", zone, rig.kmem,
                         rig.layout.allocBitmap);
    fresh.setBadFrames(&bad2);
    fresh.recoverFromBitmap();
    EXPECT_TRUE(fresh.isAllocated(live));
    // 4 frames, 1 live, 1 retired-while-free: 2 remain allocatable.
    EXPECT_EQ(fresh.freeFrames(), 2u);
    EXPECT_NE(fresh.tryAlloc(), invalidAddr);
    EXPECT_NE(fresh.tryAlloc(), invalidAddr);
    EXPECT_EQ(fresh.tryAlloc(), invalidAddr);
}

TEST(FrameAllocTest, VolatileRecoveryPanics)
{
    setErrorsThrow(true);
    Rig rig;
    FrameAllocator alloc("t", AddrRange(0, oneMiB), rig.kmem);
    EXPECT_THROW(alloc.recoverFromBitmap(), SimError);
    setErrorsThrow(false);
}

TEST(FrameAllocTest, AllFramesRetiredZoneNeverAborts)
{
    setErrorsThrow(true);
    Rig rig;
    const AddrRange zone =
        AddrRange::withSize(rig.layout.userPool, 4 * pageSize);
    BadFrameTable bad(rig.memory.nvmRange(), rig.kmem,
                      rig.layout.badFrameBitmap);
    FrameAllocator alloc("t", zone, rig.kmem,
                         rig.layout.allocBitmap);
    alloc.setBadFrames(&bad);

    // The pathological endgame: every frame of the zone has worn out.
    for (std::uint64_t i = 0; i < 4; ++i)
        ASSERT_TRUE(bad.retire(zone.start() + i * pageSize));

    // tryAlloc must report exhaustion gracefully — repeatedly, since
    // the pressure retry loop will hammer it — and never panic.
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(alloc.tryAlloc(), invalidAddr);
    EXPECT_EQ(alloc.freeFrames(), 0u);
    EXPECT_EQ(alloc.allocatedFrames(), 0u);
    setErrorsThrow(false);
}

TEST(FrameAllocTest, FullySetBadFrameBitmapRecovery)
{
    setErrorsThrow(true);
    Rig rig;
    const AddrRange zone =
        AddrRange::withSize(rig.layout.userPool, 4 * pageSize);
    {
        BadFrameTable bad(rig.memory.nvmRange(), rig.kmem,
                          rig.layout.badFrameBitmap);
        for (std::uint64_t i = 0; i < 4; ++i)
            ASSERT_TRUE(bad.retire(zone.start() + i * pageSize));
    }

    rig.memory.drainWrites(maxTick);
    rig.memory.crash(rig.sim.now(), {});

    // A reboot over a fully-retired zone must come up empty-handed
    // but alive: adoption, recovery and allocation all stay graceful.
    BadFrameTable bad2(rig.memory.nvmRange(), rig.kmem,
                       rig.layout.badFrameBitmap);
    bad2.loadFromNvm();
    EXPECT_EQ(bad2.retiredCount(), 4u);
    FrameAllocator fresh("t", zone, rig.kmem,
                         rig.layout.allocBitmap);
    fresh.setBadFrames(&bad2);
    fresh.recoverFromBitmap();
    EXPECT_EQ(fresh.freeFrames(), 0u);
    EXPECT_EQ(fresh.tryAlloc(), invalidAddr);
    setErrorsThrow(false);
}

TEST(FrameAllocTest, TryAllocFreeRetireInterleavings)
{
    setErrorsThrow(true);
    Rig rig;
    const AddrRange zone =
        AddrRange::withSize(rig.layout.userPool, 8 * pageSize);
    BadFrameTable bad(rig.memory.nvmRange(), rig.kmem,
                      rig.layout.badFrameBitmap);
    FrameAllocator alloc("t", zone, rig.kmem,
                         rig.layout.allocBitmap);
    alloc.setBadFrames(&bad);

    // Seeded storm of tryAlloc / free / retire in random order; the
    // allocator must hold its invariants through every interleaving
    // and never abort — even as the pool shrinks to nothing.
    Random rng(42);
    std::vector<Addr> live;
    std::uint64_t retired = 0;
    for (int step = 0; step < 400; ++step) {
        const std::uint64_t roll = rng.uniform(3);
        if (roll == 0) {
            const Addr f = alloc.tryAlloc();
            if (f != invalidAddr) {
                EXPECT_TRUE(alloc.isAllocated(f));
                live.push_back(f);
            }
        } else if (roll == 1 && !live.empty()) {
            const std::uint64_t idx = rng.uniform(live.size());
            const Addr f = live[idx];
            live.erase(live.begin() + static_cast<long>(idx));
            alloc.free(f);
            EXPECT_FALSE(alloc.isAllocated(f));
        } else if (roll == 2 && retired < 6) {
            // Retire any frame — mapped or free — as media wear does.
            const Addr f =
                zone.start() + rng.uniform(8) * pageSize;
            if (bad.retire(f))
                ++retired;
        }
        EXPECT_LE(alloc.allocatedFrames() + alloc.freeFrames(),
                  alloc.totalFrames());
    }
    // Drain: every remaining frame must still free cleanly, and the
    // pool must end consistent with what wear removed.
    for (const Addr f : live)
        alloc.free(f);
    EXPECT_EQ(alloc.allocatedFrames(), 0u);
    EXPECT_LE(alloc.freeFrames(), alloc.totalFrames() - retired);
    setErrorsThrow(false);
}

TEST(FrameAllocTest, WatermarkGaugesAndExhaustionStat)
{
    Rig rig;
    FrameAllocator alloc("t", AddrRange(0, 8 * pageSize), rig.kmem);
    // No watermarks armed: belowLow never trips, no gauges exported
    // (gauge lookup is fatal when the stat was never registered).
    EXPECT_FALSE(alloc.belowLow());
    setErrorsThrow(true);
    EXPECT_THROW(alloc.stats().gaugeValue("lowWatermark"), SimError);
    setErrorsThrow(false);

    alloc.setWatermarks(2, 4);
    EXPECT_EQ(alloc.lowWatermark(), 2u);
    EXPECT_EQ(alloc.highWatermark(), 4u);
    EXPECT_EQ(alloc.stats().gaugeValue("lowWatermark"), 2);
    EXPECT_EQ(alloc.stats().gaugeValue("highWatermark"), 4);

    // 8 free frames: above low.  Draw down to 2 free: at/below low.
    EXPECT_FALSE(alloc.belowLow());
    std::vector<Addr> held;
    for (int i = 0; i < 6; ++i)
        held.push_back(alloc.tryAlloc());
    EXPECT_TRUE(alloc.belowLow());

    // The exhaustion counter registers lazily on the first failure.
    EXPECT_FALSE(alloc.stats().hasScalar("exhaustedAllocs"));
    while (alloc.tryAlloc() != invalidAddr) {}
    EXPECT_EQ(alloc.stats().scalarValue("exhaustedAllocs"), 1);

    for (const Addr f : held)
        alloc.free(f);
    EXPECT_FALSE(alloc.belowLow());
}

} // namespace
} // namespace kindle::os
