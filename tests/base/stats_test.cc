#include <gtest/gtest.h>

#include <utility>

#include "base/logging.hh"
#include "base/stats.hh"

namespace kindle::statistics
{
namespace
{

TEST(StatsTest, ScalarArithmetic)
{
    Scalar s;
    EXPECT_EQ(s.value(), 0.0);
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
}

TEST(StatsTest, GaugeTracksLevelNotTraffic)
{
    Gauge g;
    EXPECT_EQ(g.value(), 0.0);
    g = 10;
    g += 5;
    g -= 3;
    ++g;
    --g;
    EXPECT_DOUBLE_EQ(g.value(), 12);
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    // Gauges may legitimately go negative transiently (e.g. a drain
    // observed before the matching fill).
    g -= 5;
    EXPECT_DOUBLE_EQ(g.value(), -2.5);
}

TEST(StatsTest, DistributionTracksMoments)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    d.sample(2);
    d.sample(4);
    d.sample(9);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.min(), 2);
    EXPECT_DOUBLE_EQ(d.max(), 9);
    EXPECT_DOUBLE_EQ(d.mean(), 5);
    EXPECT_DOUBLE_EQ(d.sum(), 15);
}

TEST(StatsTest, HistogramBucketBoundaries)
{
    // Bucket 0 holds only zeros; bucket i >= 1 holds [2^(i-1), 2^i).
    EXPECT_EQ(Histogram::bucketIndex(0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(1), 1u);
    EXPECT_EQ(Histogram::bucketIndex(2), 2u);
    EXPECT_EQ(Histogram::bucketIndex(3), 2u);
    EXPECT_EQ(Histogram::bucketIndex(4), 3u);
    EXPECT_EQ(Histogram::bucketIndex(1024), 11u);
    EXPECT_EQ(Histogram::bucketIndex(~std::uint64_t{0}), 64u);

    for (unsigned i = 1; i < Histogram::numBuckets; ++i) {
        EXPECT_EQ(Histogram::bucketIndex(Histogram::bucketLo(i)), i);
        EXPECT_EQ(Histogram::bucketIndex(Histogram::bucketHi(i)), i);
    }
    EXPECT_EQ(Histogram::bucketLo(0), 0u);
    EXPECT_EQ(Histogram::bucketHi(0), 0u);
    EXPECT_EQ(Histogram::bucketHi(64), ~std::uint64_t{0});
}

TEST(StatsTest, HistogramZeroAndNegativeSamplesLandInBucketZero)
{
    Histogram h;
    h.sample(0);
    h.sample(-3);  // clamped: latencies cannot be negative
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0);
}

TEST(StatsTest, HistogramMaxTickSampleSaturatesTopBucket)
{
    Histogram h;
    const double top =
        static_cast<double>(~std::uint64_t{0});
    h.sample(top);
    EXPECT_EQ(h.bucketCount(64), 1u);
    EXPECT_DOUBLE_EQ(h.quantile(1.0),
                     static_cast<double>(~std::uint64_t{0}));
}

TEST(StatsTest, HistogramMomentsAndQuantiles)
{
    Histogram h;
    // 7 samples: one zero, four small, two large.
    for (double v : {0.0, 3.0, 3.0, 5.0, 7.0, 1000.0, 1000.0})
        h.sample(v);
    EXPECT_EQ(h.count(), 7u);
    EXPECT_DOUBLE_EQ(h.min(), 0);
    EXPECT_DOUBLE_EQ(h.max(), 1000);
    EXPECT_DOUBLE_EQ(h.sum(), 2018);
    // Median sample is 5 → bucket [4,8) whose upper bound is 7.
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 7);
    // p100 lands in 1000's bucket [512,1024).
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 1023);
}

TEST(StatsTest, HistogramEmptyStateThenFirstSampleSeedsExtrema)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.min(), 0);
    EXPECT_DOUBLE_EQ(h.max(), 0);
    EXPECT_DOUBLE_EQ(h.sum(), 0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0);
    for (unsigned i = 0; i < Histogram::numBuckets; ++i)
        EXPECT_EQ(h.bucketCount(i), 0u);

    // The first sample seeds both extrema (not pinned to the empty
    // state's zero).
    h.sample(9);
    EXPECT_DOUBLE_EQ(h.min(), 9);
    EXPECT_DOUBLE_EQ(h.max(), 9);
}

TEST(StatsTest, HistogramSnapshotKeysIncludeOccupiedBuckets)
{
    StatGroup g("g");
    Histogram &h = g.addHistogram("lat", "");
    h.sample(0);
    h.sample(5);
    const StatSnapshot snap = StatSnapshot::capture(g);
    EXPECT_DOUBLE_EQ(snap.get("g.lat::count"), 2);
    EXPECT_DOUBLE_EQ(snap.get("g.lat::sum"), 5);
    EXPECT_DOUBLE_EQ(snap.get("g.lat::b0"), 1);
    EXPECT_DOUBLE_EQ(snap.get("g.lat::b3"), 1);
    // Empty buckets are omitted from snapshots.
    EXPECT_FALSE(snap.has("g.lat::b1"));
}

TEST(StatsTest, GroupLookup)
{
    StatGroup g("test");
    Scalar &a = g.addScalar("alpha", "first");
    a += 7;
    EXPECT_DOUBLE_EQ(g.scalarValue("alpha"), 7);
    EXPECT_TRUE(g.hasScalar("alpha"));
    EXPECT_FALSE(g.hasScalar("beta"));
}

TEST(StatsTest, LazyScalarRegistersOnFirstUse)
{
    StatGroup g("test");
    Scalar *slot = nullptr;
    EXPECT_FALSE(g.hasScalar("lazy"));
    ++g.lazyScalar(slot, "lazy", "registered by first use");
    ASSERT_NE(slot, nullptr);
    // Later calls reuse the slot instead of re-registering (fatal).
    g.lazyScalar(slot, "lazy", "registered by first use") += 2;
    EXPECT_DOUBLE_EQ(g.scalarValue("lazy"), 3);
}

TEST(StatsTest, MissingStatIsFatal)
{
    setErrorsThrow(true);
    StatGroup g("test");
    EXPECT_THROW(g.scalarValue("nope"), SimError);
    setErrorsThrow(false);
}

TEST(StatsTest, DuplicateRegistrationIsFatal)
{
    setErrorsThrow(true);
    StatGroup g("test");
    g.addScalar("x", "");
    try {
        g.addScalar("x", "");
        FAIL() << "duplicate scalar registration not rejected";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::fatal);
    }
    g.addDistribution("d", "");
    EXPECT_THROW(g.addDistribution("d", ""), SimError);
    setErrorsThrow(false);
}

TEST(StatsTest, ScalarAndDistributionCannotShareAName)
{
    setErrorsThrow(true);
    StatGroup g("test");
    g.addScalar("latency", "");
    EXPECT_THROW(g.addDistribution("latency", ""), SimError);
    g.addDistribution("width", "");
    EXPECT_THROW(g.addScalar("width", ""), SimError);
    setErrorsThrow(false);
}

TEST(StatsTest, DistributionEmptyStateThenFirstSampleSeedsExtrema)
{
    Distribution d;

    // Empty: the zero convention.
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.min(), 0);
    EXPECT_DOUBLE_EQ(d.max(), 0);
    EXPECT_DOUBLE_EQ(d.mean(), 0);
    EXPECT_DOUBLE_EQ(d.sum(), 0);

    // The first sample defines both extrema; min is not pinned to
    // the empty state's zero.
    d.sample(7);
    EXPECT_EQ(d.count(), 1u);
    EXPECT_DOUBLE_EQ(d.min(), 7);
    EXPECT_DOUBLE_EQ(d.max(), 7);
    EXPECT_DOUBLE_EQ(d.mean(), 7);
}

TEST(StatsTest, DistributionSingleNegativeSample)
{
    Distribution d;
    d.sample(-2.5);
    EXPECT_DOUBLE_EQ(d.min(), -2.5);
    EXPECT_DOUBLE_EQ(d.max(), -2.5);
    EXPECT_DOUBLE_EQ(d.sum(), -2.5);
    EXPECT_DOUBLE_EQ(d.mean(), -2.5);
}

TEST(StatsTest, AcceptVisitsCanonicalOrder)
{
    StatGroup parent("p");
    StatGroup child("c");
    parent.addScalar("b", "");
    parent.addScalar("a", "");
    parent.addDistribution("d", "");
    child.addScalar("x", "");
    parent.addChild(child);

    struct Recorder : StatVisitor
    {
        std::vector<std::string> events;
        void
        beginGroup(const std::string &n, const std::string &) override
        {
            events.push_back("g:" + n);
        }
        void endGroup() override { events.push_back("end"); }
        void
        visitScalar(const std::string &n, const std::string &,
                    const Scalar &) override
        {
            events.push_back("s:" + n);
        }
        void
        visitGauge(const std::string &n, const std::string &,
                   const Gauge &) override
        {
            events.push_back("gauge:" + n);
        }
        void
        visitDistribution(const std::string &n, const std::string &,
                          const Distribution &) override
        {
            events.push_back("d:" + n);
        }
        void
        visitHistogram(const std::string &n, const std::string &,
                       const Histogram &) override
        {
            events.push_back("h:" + n);
        }
    } rec;
    parent.accept(rec);

    const std::vector<std::string> expected = {
        "g:p", "s:a", "s:b", "d:d", "g:c", "s:x", "end", "end"};
    EXPECT_EQ(rec.events, expected);
}

TEST(StatsTest, SnapshotCapturesFlatPaths)
{
    StatGroup parent("parent");
    StatGroup child("child");
    parent.addScalar("p", "") += 4;
    child.addDistribution("lat", "").sample(10);
    parent.addChild(child);

    const StatSnapshot snap = StatSnapshot::capture(parent);
    EXPECT_TRUE(snap.has("parent.p"));
    EXPECT_DOUBLE_EQ(snap.get("parent.p"), 4);
    EXPECT_DOUBLE_EQ(snap.get("parent.child.lat::count"), 1);
    EXPECT_DOUBLE_EQ(snap.get("parent.child.lat::sum"), 10);
    EXPECT_DOUBLE_EQ(snap.get("parent.child.lat::min"), 10);
    EXPECT_DOUBLE_EQ(snap.getOr("parent.child.lat::mean", -1), 10);
    EXPECT_FALSE(snap.has("parent.missing"));
    EXPECT_DOUBLE_EQ(snap.getOr("parent.missing", 9), 9);
}

TEST(StatsTest, SnapshotEquality)
{
    StatGroup g("g");
    Scalar &v = g.addScalar("v", "");
    v += 2;
    const StatSnapshot a = StatSnapshot::capture(g);
    const StatSnapshot b = StatSnapshot::capture(g);
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.entries(),
              (std::map<std::string, double>{{"g.v", 2}}));

    v += 1;
    EXPECT_FALSE(a == StatSnapshot::capture(g));
}

TEST(StatsTest, SnapshotLookupIndexSurvivesMutationAndCopy)
{
    StatGroup g("g");
    g.addScalar("a", "") += 1;
    StatSnapshot snap = StatSnapshot::capture(g);
    EXPECT_EQ(snap.get("g.a"), 1);

    // set() after a lookup invalidates the lazily built index; the
    // next lookup must see both old and new entries.
    snap.set("extra", 7);
    EXPECT_EQ(snap.get("extra"), 7);
    EXPECT_EQ(snap.get("g.a"), 1);

    // Copies must not share index pointers into the source's map
    // nodes; both sides stay consistent after diverging.
    StatSnapshot copy = snap;
    copy.set("onlyInCopy", 3);
    EXPECT_EQ(copy.get("onlyInCopy"), 3);
    EXPECT_EQ(copy.get("g.a"), 1);
    EXPECT_FALSE(snap.has("onlyInCopy"));
    EXPECT_EQ(snap.get("g.a"), 1);

    StatSnapshot moved = std::move(copy);
    EXPECT_EQ(moved.get("onlyInCopy"), 3);
    EXPECT_EQ(moved.getOr("missing", -1), -1);
    EXPECT_FALSE(moved.has("missing"));
}

TEST(StatsTest, SnapshotBuilderRejectsASecondVisitOfOneGroup)
{
    StatGroup g("g");
    g.addScalar("v", "") += 1;
    StatSnapshot snap;
    StatSnapshot::Builder builder(snap);
    g.accept(builder);

    setErrorsThrow(true);
    EXPECT_THROW(g.accept(builder), SimError);
    setErrorsThrow(false);
    EXPECT_EQ(snap.get("g.v"), 1);

    // set() still overwrites: harness extras rely on it.
    snap.set("g.v", 5);
    EXPECT_EQ(snap.get("g.v"), 5);
}

TEST(StatsTest, SnapshotRollupSumsScalarsOnly)
{
    StatGroup a("cpu0");
    StatGroup b("cpu1");
    StatGroup a_tlb("tlb");
    StatGroup b_tlb("tlb");
    a.addChild(a_tlb);
    b.addChild(b_tlb);
    a.addScalar("ops", "") += 0.1;
    b.addScalar("ops", "") += 0.2;
    a_tlb.addScalar("misses", "") += 3;
    b_tlb.addScalar("misses", "") += 4;
    a.addGauge("level", "") = 7;
    b.addGauge("level", "") = 8;
    a.addDistribution("lat", "").sample(5);
    b.addDistribution("lat", "").sample(6);

    StatSnapshot snap;
    StatSnapshot::Builder builder(snap);
    a.accept(builder);
    b.accept(builder);
    StatSnapshot::Builder rollup(snap, "core");
    a.accept(rollup);
    b.accept(rollup);

    // Summed in visit order from 0, exactly as double addition does.
    EXPECT_EQ(snap.get("core.ops"), 0.0 + 0.1 + 0.2);
    EXPECT_EQ(snap.get("core.tlb.misses"), 7);
    EXPECT_FALSE(snap.has("core.level"));
    EXPECT_FALSE(snap.has("core.lat::count"));
    EXPECT_EQ(snap.get("cpu1.level"), 8);
    EXPECT_EQ(snap.get("cpu0.lat::count"), 1);
}

} // namespace
} // namespace kindle::statistics
