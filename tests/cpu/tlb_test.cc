#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "base/random.hh"
#include "cpu/tlb.hh"

namespace kindle::cpu
{
namespace
{

TlbEntry
makeEntry(Pid pid, std::uint64_t vpn, std::uint64_t pfn = 0)
{
    TlbEntry e;
    e.pid = pid;
    e.vpn = vpn;
    e.pfn = pfn ? pfn : vpn + 1000;
    return e;
}

TlbParams
smallTlb()
{
    TlbParams p;
    p.l1Entries = 4;
    p.l2Entries = 48;  // 12 ways x 4 sets
    return p;
}

TEST(TlbTest, FillThenHit)
{
    Tlb tlb(smallTlb());
    tlb.fill(makeEntry(1, 0x10));
    Tick extra = 99;
    TlbEntry *e = tlb.lookup(1, 0x10, extra);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(extra, 0u);  // L1 hit
    EXPECT_EQ(e->pfn, 0x10u + 1000u);
}

TEST(TlbTest, MissReturnsNull)
{
    Tlb tlb(smallTlb());
    Tick extra = 0;
    EXPECT_EQ(tlb.lookup(1, 0x99, extra), nullptr);
}

TEST(TlbTest, PidTagsSeparateProcesses)
{
    Tlb tlb(smallTlb());
    tlb.fill(makeEntry(1, 0x10, 0xaaa));
    tlb.fill(makeEntry(2, 0x10, 0xbbb));
    Tick extra;
    EXPECT_EQ(tlb.lookup(1, 0x10, extra)->pfn, 0xaaau);
    EXPECT_EQ(tlb.lookup(2, 0x10, extra)->pfn, 0xbbbu);
}

TEST(TlbTest, L1OverflowDemotesToL2)
{
    Tlb tlb(smallTlb());
    for (std::uint64_t v = 0; v < 8; ++v)
        tlb.fill(makeEntry(1, v));
    // Early entries must still hit, via L2 with extra latency.
    Tick extra = 0;
    TlbEntry *e = tlb.lookup(1, 0, extra);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(extra, smallTlb().l2HitLatency);
    EXPECT_EQ(tlb.stats().scalarValue("l2Hits"), 1);
}

TEST(TlbTest, L2HitPromotesBackToL1)
{
    Tlb tlb(smallTlb());
    for (std::uint64_t v = 0; v < 8; ++v)
        tlb.fill(makeEntry(1, v));
    Tick extra;
    tlb.lookup(1, 0, extra);  // promote from L2
    tlb.lookup(1, 0, extra);  // now an L1 hit
    EXPECT_EQ(extra, 0u);
}

TEST(TlbTest, EvictHookFiresWithMetadata)
{
    std::set<std::uint64_t> evicted;
    Tlb tlb(smallTlb(),
            [&](const TlbEntry &e) { evicted.insert(e.vpn); });
    // Overflow both levels of one L2 set: VPNs congruent mod 4 land
    // in the same set; 12 ways + 4 L1 slots hold 16.
    for (std::uint64_t v = 0; v < 32; ++v)
        tlb.fill(makeEntry(1, v * 4));
    EXPECT_FALSE(evicted.empty());
}

TEST(TlbTest, InvalidateRemovesBothLevels)
{
    Tlb tlb(smallTlb());
    for (std::uint64_t v = 0; v < 8; ++v)
        tlb.fill(makeEntry(1, v));
    tlb.invalidate(1, 0);  // resident in L2 by now
    tlb.invalidate(1, 7);  // resident in L1
    Tick extra;
    EXPECT_EQ(tlb.lookup(1, 0, extra), nullptr);
    EXPECT_EQ(tlb.lookup(1, 7, extra), nullptr);
}

TEST(TlbTest, FlushAllFiresHooksAndEmpties)
{
    int hooks = 0;
    Tlb tlb(smallTlb(), [&](const TlbEntry &) { ++hooks; });
    for (std::uint64_t v = 0; v < 6; ++v)
        tlb.fill(makeEntry(1, v));
    tlb.flushAll();
    EXPECT_EQ(hooks, 6);
    Tick extra;
    for (std::uint64_t v = 0; v < 6; ++v)
        EXPECT_EQ(tlb.lookup(1, v, extra), nullptr);
}

TEST(TlbTest, ResetIsSilent)
{
    int hooks = 0;
    Tlb tlb(smallTlb(), [&](const TlbEntry &) { ++hooks; });
    tlb.fill(makeEntry(1, 1));
    tlb.reset();
    EXPECT_EQ(hooks, 0);
    Tick extra;
    EXPECT_EQ(tlb.lookup(1, 1, extra), nullptr);
}

TEST(TlbTest, MetadataSurvivesDemotionAndPromotion)
{
    Tlb tlb(smallTlb());
    TlbEntry e = makeEntry(1, 0);
    e.sspTracked = true;
    e.updatedBits = 0xf0f0;
    e.accessCount = 17;
    tlb.fill(e);
    // Push it down to L2 and back.
    for (std::uint64_t v = 1; v < 6; ++v)
        tlb.fill(makeEntry(1, v));
    Tick extra;
    TlbEntry *back = tlb.lookup(1, 0, extra);
    ASSERT_NE(back, nullptr);
    EXPECT_TRUE(back->sspTracked);
    EXPECT_EQ(back->updatedBits, 0xf0f0u);
    EXPECT_EQ(back->accessCount, 17u);
}

TEST(TlbTest, ForEachValidVisitsBothLevels)
{
    Tlb tlb(smallTlb());
    for (std::uint64_t v = 0; v < 10; ++v)
        tlb.fill(makeEntry(1, v));
    std::set<std::uint64_t> seen;
    tlb.forEachValid([&](TlbEntry &e) { seen.insert(e.vpn); });
    EXPECT_EQ(seen.size(), 10u);
}

// ---- Differential test against a linear-scan TLB ----------------

/** What an observer can see of an entry: its tag and its payload. */
using Seen = std::tuple<Pid, std::uint64_t, std::uint64_t, unsigned>;

Seen
seen(const TlbEntry &e)
{
    return {e.pid, e.vpn, e.pfn, e.accessCount};
}

/**
 * The reference: arrays of whole entries searched linearly, L1 fully
 * associative, L2 by VPN set, LRU by stamp with empty slots first.
 */
class RefTlb
{
  public:
    explicit RefTlb(const TlbParams &p)
        : params(p), l1(p.l1Entries), l2(p.l2Entries),
          sets(p.l2Entries / 12)
    {}

    TlbEntry *
    lookup(Pid pid, std::uint64_t vpn, Tick &extra)
    {
        extra = 0;
        if (Slot *s = find(l1, pid, vpn)) {
            ++l1Hits;
            s->lru = ++stamp;
            return &s->e;
        }
        if (Slot *s = find(l2, pid, vpn)) {
            ++l2Hits;
            extra = params.l2HitLatency;
            const TlbEntry promoted = s->e;
            s->valid = false;
            return &install(promoted);
        }
        ++misses;
        return nullptr;
    }

    TlbEntry &fill(const TlbEntry &e) { return install(e); }

    void
    invalidate(Pid pid, std::uint64_t vpn)
    {
        if (Slot *s = find(l1, pid, vpn))
            s->valid = false;
        if (Slot *s = find(l2, pid, vpn))
            s->valid = false;
    }

    void
    flushAll()
    {
        for (auto *arr : {&l1, &l2}) {
            for (auto &s : *arr) {
                if (s.valid) {
                    ++evictions;
                    evicted.push_back(seen(s.e));
                    s.valid = false;
                }
            }
        }
    }

    void
    reset()
    {
        for (auto *arr : {&l1, &l2})
            for (auto &s : *arr)
                s.valid = false;
    }

    std::vector<Seen>
    valid() const
    {
        std::vector<Seen> out;
        for (const auto *arr : {&l1, &l2})
            for (const auto &s : *arr)
                if (s.valid)
                    out.push_back(seen(s.e));
        return out;
    }

    std::vector<Seen> evicted;
    double l1Hits = 0, l2Hits = 0, misses = 0, evictions = 0;

  private:
    struct Slot
    {
        bool valid = false;
        std::uint64_t lru = 0;
        TlbEntry e;
    };

    static Slot *
    find(std::vector<Slot> &arr, Pid pid, std::uint64_t vpn)
    {
        for (auto &s : arr)
            if (s.valid && s.e.pid == pid && s.e.vpn == vpn)
                return &s;
        return nullptr;
    }

    static Slot &
    victim(Slot *base, std::size_t n)
    {
        Slot *v = base;
        for (std::size_t i = 0; i < n; ++i) {
            if (!base[i].valid)
                return base[i];
            if (base[i].lru < v->lru)
                v = &base[i];
        }
        return *v;
    }

    TlbEntry &
    install(const TlbEntry &e)
    {
        Slot &slot = victim(l1.data(), l1.size());
        if (slot.valid) {
            Slot &down = victim(&l2[(slot.e.vpn % sets) * 12], 12);
            if (down.valid) {
                ++evictions;
                evicted.push_back(seen(down.e));
            }
            down = slot;
        }
        slot = {true, ++stamp, e};
        return slot.e;
    }

    TlbParams params;
    std::vector<Slot> l1, l2;
    std::uint64_t sets;
    std::uint64_t stamp = 0;
};

/** Operation shares, per mille; what the three leave are resets. */
struct TlbMix
{
    unsigned lookups = 940;
    unsigned invalidates = 55;
    unsigned flushes = 3;
    unsigned pids = 3;
    /** Compare the live entries, in visit order, every N ops. */
    int checkEvery = 1000;
    /** Coverage floor: L2 hits the run must reach. */
    double minL2Hits = 1000;
};

void
runTlbDifferential(const TlbParams &params, unsigned vpns,
                   std::uint64_t seed, const TlbMix &mix = {})
{
    std::vector<Seen> evicted;
    Tlb tlb(params,
            [&](const TlbEntry &e) { evicted.push_back(seen(e)); });
    RefTlb ref(params);

    Random rng(seed);
    for (int op = 0; op < 60000; ++op) {
        const Pid pid = static_cast<Pid>(1 + rng.uniform(mix.pids));
        const std::uint64_t vpn = rng.uniform(vpns) * 3;
        const unsigned kind = static_cast<unsigned>(rng.uniform(1000));
        if (kind < mix.lookups) {
            // The core's pattern: look up, fill on a miss, then let
            // the HSCC hook bump the count through the pointer.
            Tick got_extra = 7, want_extra = 9;
            TlbEntry *got = tlb.lookup(pid, vpn, got_extra);
            TlbEntry *want = ref.lookup(pid, vpn, want_extra);
            ASSERT_EQ(got == nullptr, want == nullptr) << "op " << op;
            ASSERT_EQ(got_extra, want_extra) << "op " << op;
            if (!got) {
                TlbEntry e;
                e.pid = pid;
                e.vpn = vpn;
                e.pfn = rng.next() >> 20;
                got = &tlb.fill(e);
                want = &ref.fill(e);
            }
            ASSERT_EQ(seen(*got), seen(*want)) << "op " << op;
            ++got->accessCount;
            ++want->accessCount;
        } else if (kind < mix.lookups + mix.invalidates) {
            tlb.invalidate(pid, vpn);
            ref.invalidate(pid, vpn);
        } else if (kind < mix.lookups + mix.invalidates + mix.flushes) {
            tlb.flushAll();
            ref.flushAll();
        } else {
            tlb.reset();
            ref.reset();
        }
        ASSERT_EQ(evicted, ref.evicted) << "op " << op;
        evicted.clear();
        ref.evicted.clear();
        if (op % mix.checkEvery == 0) {
            // Both levels are visited in slot order, L1 first.
            std::vector<Seen> live;
            tlb.forEachValid(
                [&](TlbEntry &e) { live.push_back(seen(e)); });
            ASSERT_EQ(live, ref.valid()) << "op " << op;
        }
    }
    const auto &st = tlb.stats();
    EXPECT_EQ(st.scalarValue("l1Hits"), ref.l1Hits);
    EXPECT_EQ(st.scalarValue("l2Hits"), ref.l2Hits);
    EXPECT_EQ(st.scalarValue("misses"), ref.misses);
    EXPECT_EQ(st.scalarValue("evictions"), ref.evictions);
    EXPECT_GT(ref.l2Hits, mix.minL2Hits);
    EXPECT_GT(ref.evictions, 1000);
}

TEST(TlbDifferentialTest, SmallTlbMatchesLinearScan)
{
    runTlbDifferential(smallTlb(), 40, 21);
}

TEST(TlbDifferentialTest, DefaultTlbMatchesLinearScan)
{
    runTlbDifferential(TlbParams{}, 1200, 22);
}

/** Invalidations, flushes and resets keep emptying L1 slots mid-run,
 *  across six address spaces. */
TlbMix
churnMix()
{
    TlbMix mix;
    mix.lookups = 760;
    mix.invalidates = 230;
    mix.flushes = 6;
    mix.pids = 6;
    mix.checkEvery = 50;
    mix.minL2Hits = 500;  // flushes keep emptying L2
    return mix;
}

TEST(TlbDifferentialTest, DefaultTlbChurnMatchesLinearScan)
{
    runTlbDifferential(TlbParams{}, 400, 23, churnMix());
}

TEST(TlbDifferentialTest, OddSizedL1ChurnMatchesLinearScan)
{
    TlbParams params;
    params.l1Entries = 24;
    params.l2Entries = 96;  // 12 ways x 8 sets
    runTlbDifferential(params, 60, 24, churnMix());
}

TEST(TlbDifferentialTest, WideL1ChurnMatchesLinearScan)
{
    // More than one free-mask word, the last one partial.
    TlbParams params;
    params.l1Entries = 100;
    params.l2Entries = 192;  // 12 ways x 16 sets
    runTlbDifferential(params, 150, 25, churnMix());
}

} // namespace
} // namespace kindle::cpu
