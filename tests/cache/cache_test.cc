#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <tuple>
#include <vector>

#include "base/random.hh"
#include "cache/cache.hh"

namespace kindle::cache
{
namespace
{

/** A sink that records requests and returns a fixed latency. */
class RecordingSink : public MemSink
{
  public:
    struct Req
    {
        mem::MemCmd cmd;
        Addr addr;
    };

    Tick
    request(mem::MemCmd cmd, Addr line_addr, Tick) override
    {
        reqs.push_back({cmd, line_addr});
        return latency;
    }

    std::vector<Req> reqs;
    Tick latency = 100 * oneNs;
};

CacheParams
smallCache()
{
    return {"test", 4 * oneKiB, 2, oneNs, oneNs};  // 32 sets x 2 ways
}

TEST(CacheTest, MissThenHit)
{
    RecordingSink sink;
    Cache cache(smallCache(), sink);
    const Tick miss = cache.request(mem::MemCmd::read, 0x1000, 0);
    const Tick hit = cache.request(mem::MemCmd::read, 0x1000, miss);
    EXPECT_GT(miss, hit);
    EXPECT_EQ(cache.stats().scalarValue("hits"), 1);
    EXPECT_EQ(cache.stats().scalarValue("misses"), 1);
    ASSERT_EQ(sink.reqs.size(), 1u);  // one fill
    EXPECT_EQ(sink.reqs[0].cmd, mem::MemCmd::read);
}

TEST(CacheTest, WriteAllocatesAndMarksDirty)
{
    RecordingSink sink;
    Cache cache(smallCache(), sink);
    cache.request(mem::MemCmd::write, 0x2000, 0);
    EXPECT_TRUE(cache.contains(0x2000));
    EXPECT_TRUE(cache.isDirty(0x2000));
}

TEST(CacheTest, DirtyEvictionWritesBack)
{
    RecordingSink sink;
    Cache cache(smallCache(), sink);
    // Fill both ways of set 0 with dirty lines, then force eviction.
    // Set index = (addr >> 6) & 31; stride of 2 KiB maps to set 0.
    const Addr stride = 4 * oneKiB / 2;  // sets * lineSize = 2 KiB
    cache.request(mem::MemCmd::write, 0 * stride, 0);
    cache.request(mem::MemCmd::write, 1 * stride, 0);
    sink.reqs.clear();
    cache.request(mem::MemCmd::write, 2 * stride, 0);
    // Fill read + victim writeback.
    ASSERT_EQ(sink.reqs.size(), 2u);
    EXPECT_EQ(sink.reqs[0].cmd, mem::MemCmd::read);
    EXPECT_EQ(sink.reqs[1].cmd, mem::MemCmd::writeback);
    EXPECT_EQ(sink.reqs[1].addr, 0u);  // LRU victim
}

TEST(CacheTest, CleanEvictionIsSilent)
{
    RecordingSink sink;
    Cache cache(smallCache(), sink);
    const Addr stride = 2 * oneKiB;
    cache.request(mem::MemCmd::read, 0 * stride, 0);
    cache.request(mem::MemCmd::read, 1 * stride, 0);
    sink.reqs.clear();
    cache.request(mem::MemCmd::read, 2 * stride, 0);
    ASSERT_EQ(sink.reqs.size(), 1u);  // fill only, no writeback
}

TEST(CacheTest, LruPromotionOnHit)
{
    RecordingSink sink;
    Cache cache(smallCache(), sink);
    const Addr stride = 2 * oneKiB;
    cache.request(mem::MemCmd::read, 0 * stride, 0);
    cache.request(mem::MemCmd::read, 1 * stride, 0);
    // Touch way 0 again: way 1 becomes LRU.
    cache.request(mem::MemCmd::read, 0 * stride, 0);
    cache.request(mem::MemCmd::read, 2 * stride, 0);  // evicts 1
    EXPECT_TRUE(cache.contains(0 * stride));
    EXPECT_FALSE(cache.contains(1 * stride));
}

TEST(CacheTest, FlushLineWritesBackAndKeepsResident)
{
    RecordingSink sink;
    Cache cache(smallCache(), sink);
    cache.request(mem::MemCmd::write, 0x3000, 0);
    sink.reqs.clear();
    bool dirty = false;
    cache.flushLine(0x3000, 0, dirty);
    EXPECT_TRUE(dirty);
    ASSERT_EQ(sink.reqs.size(), 1u);
    EXPECT_EQ(sink.reqs[0].cmd, mem::MemCmd::writeback);
    EXPECT_TRUE(cache.contains(0x3000));   // clwb keeps the line
    EXPECT_FALSE(cache.isDirty(0x3000));
}

TEST(CacheTest, FlushCleanLineDoesNothing)
{
    RecordingSink sink;
    Cache cache(smallCache(), sink);
    cache.request(mem::MemCmd::read, 0x3000, 0);
    sink.reqs.clear();
    bool dirty = false;
    cache.flushLine(0x3000, 0, dirty);
    EXPECT_FALSE(dirty);
    EXPECT_TRUE(sink.reqs.empty());
}

TEST(CacheTest, InvalidateLineWritesBackDirty)
{
    RecordingSink sink;
    Cache cache(smallCache(), sink);
    cache.request(mem::MemCmd::write, 0x4000, 0);
    sink.reqs.clear();
    cache.invalidateLine(0x4000, 0);
    ASSERT_EQ(sink.reqs.size(), 1u);
    EXPECT_EQ(sink.reqs[0].cmd, mem::MemCmd::writeback);
    EXPECT_FALSE(cache.contains(0x4000));
}

TEST(CacheTest, FlushAllEmptiesTheCache)
{
    RecordingSink sink;
    Cache cache(smallCache(), sink);
    for (int i = 0; i < 16; ++i)
        cache.request(mem::MemCmd::write, Addr(i) * 64, 0);
    sink.reqs.clear();
    cache.flushAll(0);
    EXPECT_EQ(sink.reqs.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_FALSE(cache.contains(Addr(i) * 64));
}

TEST(CacheTest, InvalidateAllIsSilent)
{
    RecordingSink sink;
    Cache cache(smallCache(), sink);
    cache.request(mem::MemCmd::write, 0x0, 0);
    sink.reqs.clear();
    cache.invalidateAll();
    EXPECT_TRUE(sink.reqs.empty());
    EXPECT_FALSE(cache.contains(0x0));
}

TEST(CacheTest, WritebackAllocatesWithoutFetch)
{
    RecordingSink sink;
    Cache cache(smallCache(), sink);
    sink.reqs.clear();
    cache.request(mem::MemCmd::writeback, 0x5000, 0);
    EXPECT_TRUE(sink.reqs.empty());  // full line: no fill read
    EXPECT_TRUE(cache.isDirty(0x5000));
}

TEST(CacheTest, HitRate)
{
    RecordingSink sink;
    Cache cache(smallCache(), sink);
    cache.request(mem::MemCmd::read, 0, 0);
    cache.request(mem::MemCmd::read, 0, 0);
    cache.request(mem::MemCmd::read, 0, 0);
    cache.request(mem::MemCmd::read, 0, 0);
    EXPECT_DOUBLE_EQ(cache.hitRate(), 0.75);
}

TEST(CacheTest, UnalignedRequestPanics)
{
    setErrorsThrow(true);
    RecordingSink sink;
    Cache cache(smallCache(), sink);
    EXPECT_THROW(cache.request(mem::MemCmd::read, 0x1001, 0),
                 SimError);
    setErrorsThrow(false);
}

// ---- Differential test against a per-set LRU list ----------------

/**
 * Records every request with its issue tick; latency depends on the
 * address so a misordered or misaddressed request changes the sum.
 */
class TimedSink : public MemSink
{
  public:
    using Req = std::tuple<mem::MemCmd, Addr, Tick>;

    Tick
    request(mem::MemCmd cmd, Addr line_addr, Tick now) override
    {
        reqs.emplace_back(cmd, line_addr, now);
        return (10 + (line_addr >> lineShift) % 7) * oneNs;
    }

    std::vector<Req> reqs;
};

/**
 * The reference: per set, a most-recent-first list of (line, dirty),
 * evicting from the back once the set holds `associativity` lines.
 */
class RefCache
{
  public:
    RefCache(const CacheParams &params, MemSink &below)
        : p(params), below(below),
          sets(params.sizeBytes / (lineSize * params.associativity))
    {}

    Tick
    request(mem::MemCmd cmd, Addr line, Tick now)
    {
        auto &set = setOf(line);
        if (auto it = find(line); it != set.end()) {
            ++hits;
            it->dirty |= mem::isWriteCmd(cmd);
            set.splice(set.begin(), set, it);
            return p.hitLatency;
        }
        ++misses;
        Tick latency = p.lookupLatency;
        if (cmd != mem::MemCmd::writeback)
            latency += below.request(mem::MemCmd::read, line,
                                     now + latency);
        if (set.size() == p.associativity) {
            ++evictions;
            if (set.back().dirty) {
                ++writebacks;
                latency += below.request(mem::MemCmd::writeback,
                                         set.back().line, now + latency);
            }
            set.pop_back();
        }
        set.push_front({line, mem::isWriteCmd(cmd)});
        return latency + p.hitLatency;
    }

    Tick
    flushLine(Addr line, Tick now, bool &was_dirty)
    {
        Tick latency = p.lookupLatency;
        auto it = find(line);
        if (it != setOf(line).end() && it->dirty) {
            was_dirty = true;
            ++flushes;
            ++writebacks;
            it->dirty = false;
            latency += below.request(mem::MemCmd::writeback, line,
                                     now + latency);
        }
        return latency;
    }

    Tick
    invalidateLine(Addr line, Tick now)
    {
        Tick latency = p.lookupLatency;
        auto it = find(line);
        if (it != setOf(line).end()) {
            if (it->dirty) {
                ++writebacks;
                latency += below.request(mem::MemCmd::writeback, line,
                                         now + latency);
            }
            setOf(line).erase(it);
        }
        return latency;
    }

    Tick
    flushAll(Tick now)
    {
        Tick latency = 0;
        for (auto &set : sets) {
            for (const auto &l : set) {
                if (l.dirty) {
                    ++writebacks;
                    latency += below.request(mem::MemCmd::writeback,
                                             l.line, now + latency);
                }
            }
        }
        invalidateAll();
        return latency;
    }

    void
    invalidateAll()
    {
        for (auto &set : sets)
            set.clear();
    }

    bool contains(Addr line) { return find(line) != setOf(line).end(); }

    bool
    isDirty(Addr line)
    {
        auto it = find(line);
        return it != setOf(line).end() && it->dirty;
    }

    double hits = 0, misses = 0, evictions = 0, writebacks = 0,
           flushes = 0;

  private:
    struct Line
    {
        Addr line;
        bool dirty;
    };

    std::list<Line> &
    setOf(Addr line)
    {
        return sets[(line >> lineShift) % sets.size()];
    }

    std::list<Line>::iterator
    find(Addr line)
    {
        auto &set = setOf(line);
        return std::find_if(set.begin(), set.end(),
                            [&](const Line &l) { return l.line == line; });
    }

    CacheParams p;
    MemSink &below;
    std::vector<std::list<Line>> sets;
};

/** flushAll's order within a set is way order, not LRU order. */
std::vector<std::pair<mem::MemCmd, Addr>>
unordered(const std::vector<TimedSink::Req> &reqs)
{
    std::vector<std::pair<mem::MemCmd, Addr>> out;
    for (const auto &[cmd, addr, now] : reqs)
        out.emplace_back(cmd, addr);
    std::sort(out.begin(), out.end());
    return out;
}

void
runCacheDifferential(const CacheParams &params, unsigned pool_size,
                     std::uint64_t seed)
{
    TimedSink sink, ref_sink;
    Cache cache(params, sink);
    RefCache ref(params, ref_sink);

    Random rng(seed);
    std::vector<Addr> pool = {0};
    while (pool.size() < pool_size)
        pool.push_back(rng.uniform(Addr(1) << 40) & ~Addr(lineSize - 1));

    Tick now = 0;
    for (int op = 0; op < 40000; ++op) {
        const Addr line = pool[rng.uniform(pool.size())];
        const unsigned kind = rng.uniform(4000);
        sink.reqs.clear();
        ref_sink.reqs.clear();
        Tick got = 0, want = 0;
        if (kind < 1600) {
            got = cache.request(mem::MemCmd::read, line, now);
            want = ref.request(mem::MemCmd::read, line, now);
        } else if (kind < 2800) {
            got = cache.request(mem::MemCmd::write, line, now);
            want = ref.request(mem::MemCmd::write, line, now);
        } else if (kind < 3000) {
            got = cache.request(mem::MemCmd::writeback, line, now);
            want = ref.request(mem::MemCmd::writeback, line, now);
        } else if (kind < 3400) {
            bool got_dirty = false, want_dirty = false;
            got = cache.flushLine(line, now, got_dirty);
            want = ref.flushLine(line, now, want_dirty);
            ASSERT_EQ(got_dirty, want_dirty) << "op " << op;
        } else if (kind < 3998) {
            got = cache.invalidateLine(line, now);
            want = ref.invalidateLine(line, now);
        } else if (kind < 3999) {
            got = cache.flushAll(now);
            want = ref.flushAll(now);
            ASSERT_EQ(unordered(sink.reqs), unordered(ref_sink.reqs))
                << "op " << op;
            ref_sink.reqs = sink.reqs;
        } else {
            cache.invalidateAll();
            ref.invalidateAll();
        }
        ASSERT_EQ(got, want) << "op " << op;
        ASSERT_EQ(sink.reqs, ref_sink.reqs) << "op " << op;
        const Addr other = pool[rng.uniform(pool.size())];
        for (const Addr a : {line, other}) {
            ASSERT_EQ(cache.contains(a), ref.contains(a)) << "op " << op;
            ASSERT_EQ(cache.isDirty(a), ref.isDirty(a)) << "op " << op;
        }
        now += got;
    }
    const auto &st = cache.stats();
    EXPECT_EQ(st.scalarValue("hits"), ref.hits);
    EXPECT_EQ(st.scalarValue("misses"), ref.misses);
    EXPECT_EQ(st.scalarValue("evictions"), ref.evictions);
    EXPECT_EQ(st.scalarValue("writebacks"), ref.writebacks);
    EXPECT_EQ(st.scalarValue("flushes"), ref.flushes);
    EXPECT_GT(ref.evictions, 1000);
}

TEST(CacheDifferentialTest, TwoWayMatchesLruListModel)
{
    runCacheDifferential(smallCache(), 200, 11);
}

TEST(CacheDifferentialTest, SixteenWayMatchesLruListModel)
{
    runCacheDifferential({"wide", 16 * oneKiB, 16, oneNs, 3 * oneNs},
                         600, 12);
}

} // namespace
} // namespace kindle::cache
