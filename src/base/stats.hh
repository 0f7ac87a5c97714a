/**
 * @file
 * A small statistics package in the spirit of gem5's Stats.
 *
 * Components own Scalar / Gauge / Distribution / Histogram stats and
 * register them with a StatGroup; groups nest into a tree.  The tree
 * is consumed through a visitor (StatVisitor).  Stats leave a machine
 * one way: StatSnapshot, a flat path→value map built by visiting the
 * whole tree (or forest), which BENCH_*.json records, the telemetry
 * sampler and digests all read.
 *
 * Stats are plain doubles/counters — no atomic machinery, because one
 * simulated machine is single threaded.  Concurrent *machines* (the
 * runner's sweep executor) are safe because every KindleSystem owns a
 * disjoint stat tree; there is no global registry.
 */

#ifndef KINDLE_BASE_STATS_HH
#define KINDLE_BASE_STATS_HH

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/logging.hh"

namespace kindle::statistics
{

/**
 * A named monotonically updatable counter.  Deliberately has no
 * assignment from a raw value: a counter only ever accumulates, and
 * code that wants to *set* a level (queue depth, pool occupancy) must
 * use a Gauge so exported snapshots distinguish the two semantics.
 */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator++() { ++_value; return *this; }
    Scalar &operator+=(double v) { _value += v; return *this; }

    double value() const { return _value; }

  private:
    double _value = 0;
};

/**
 * A point-in-time level (buffer occupancy, free-list length).  Unlike
 * Scalar it may be assigned, incremented and decremented freely; a
 * snapshot of a gauge is the level *now*, not an activity count.
 */
class Gauge
{
  public:
    Gauge() = default;

    Gauge &operator=(double v) { _value = v; return *this; }
    Gauge &operator+=(double v) { _value += v; return *this; }
    Gauge &operator-=(double v) { _value -= v; return *this; }
    Gauge &operator++() { ++_value; return *this; }
    Gauge &operator--() { --_value; return *this; }

    void set(double v) { _value = v; }
    double value() const { return _value; }

  private:
    double _value = 0;
};

/**
 * Min/max/mean/count tracker for per-event samples.
 *
 * The empty state (no samples yet) reports min() == max() == mean()
 * == 0 by convention; the first sample seeds min and max, so neither
 * is pinned to that zero.
 */
class Distribution
{
  public:
    void
    sample(double v)
    {
        if (_count == 0) {
            _min = _max = v;
        } else {
            if (v < _min)
                _min = v;
            if (v > _max)
                _max = v;
        }
        _sum += v;
        ++_count;
    }

    std::uint64_t count() const { return _count; }
    double min() const { return _count ? _min : 0; }
    double max() const { return _count ? _max : 0; }
    double sum() const { return _sum; }
    double
    mean() const
    {
        return _count ? _sum / static_cast<double>(_count) : 0;
    }

  private:
    std::uint64_t _count = 0;
    double _sum = 0;
    double _min = 0;
    double _max = 0;
};

/**
 * Log2-bucketed sample distribution for values that span many orders
 * of magnitude (request latencies in ticks, queue depths).
 *
 * Bucket 0 holds exact zeros; bucket i (1..64) holds samples in
 * [2^(i-1), 2^i).  The top bucket's upper bound saturates at
 * UINT64_MAX, so a max-tick sample still lands in a bucket instead of
 * overflowing.  Negative samples clamp to zero (latencies and depths
 * are non-negative by construction; a clamp keeps a stray rounding
 * artifact from corrupting the bucket index).
 *
 * Alongside the buckets the histogram tracks count/sum/min/max with
 * Distribution's empty-state conventions, and derives quantiles from
 * the bucket boundaries (the reported quantile is the upper bound of
 * the bucket where the cumulative count crosses q — exact to within
 * one power of two, which is the resolution this stat trades for O(1)
 * memory).
 */
class Histogram
{
  public:
    /** Bucket 0 (zeros) + one bucket per power of two up to 2^64. */
    static constexpr unsigned numBuckets = 65;

    void
    sample(double v)
    {
        // Clamp before the back-cast: 2^64-1 rounds *up* to 2^64 as a
        // double, and casting that to uint64_t is undefined.
        constexpr double top =
            static_cast<double>(~std::uint64_t{0});
        const std::uint64_t u = v <= 0 ? 0
                                : v >= top
                                    ? ~std::uint64_t{0}
                                    : static_cast<std::uint64_t>(v);
        ++buckets[bucketIndex(u)];
        if (_count == 0) {
            _min = _max = v;
        } else {
            if (v < _min)
                _min = v;
            if (v > _max)
                _max = v;
        }
        _sum += v;
        ++_count;
    }

    /** Bucket index a value of @p u would land in. */
    static unsigned
    bucketIndex(std::uint64_t u)
    {
        return u == 0 ? 0 : 64 - std::countl_zero(u);
    }

    /** Inclusive lower bound of bucket @p i. */
    static std::uint64_t
    bucketLo(unsigned i)
    {
        return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
    }

    /** Inclusive upper bound of bucket @p i (saturates at the top). */
    static std::uint64_t
    bucketHi(unsigned i)
    {
        if (i == 0)
            return 0;
        if (i >= 64)
            return ~std::uint64_t{0};
        return (std::uint64_t{1} << i) - 1;
    }

    std::uint64_t bucketCount(unsigned i) const { return buckets[i]; }

    std::uint64_t count() const { return _count; }
    double min() const { return _count ? _min : 0; }
    double max() const { return _count ? _max : 0; }
    double sum() const { return _sum; }
    double
    mean() const
    {
        return _count ? _sum / static_cast<double>(_count) : 0;
    }

    /**
     * Upper bound of the bucket containing the @p q-quantile sample
     * (0 <= q <= 1); 0 when empty.
     */
    double
    quantile(double q) const
    {
        if (_count == 0)
            return 0;
        const auto want = static_cast<std::uint64_t>(
            q * static_cast<double>(_count - 1));
        std::uint64_t seen = 0;
        for (unsigned i = 0; i < numBuckets; ++i) {
            seen += buckets[i];
            if (seen > want)
                return static_cast<double>(bucketHi(i));
        }
        return static_cast<double>(bucketHi(numBuckets - 1));
    }

  private:
    std::array<std::uint64_t, numBuckets> buckets{};
    std::uint64_t _count = 0;
    double _sum = 0;
    double _min = 0;
    double _max = 0;
};

/**
 * Consumer of a stat tree traversal.  StatGroup::accept() calls
 * beginGroup/endGroup around each group and visitScalar / visitGauge /
 * visitDistribution / visitHistogram for every stat, in the group's
 * canonical order (scalars sorted by name, then gauges, then
 * distributions, then histograms — each kind sorted by name — then
 * child groups in attachment order).  Snapshots and ad-hoc queries
 * are both visitors.
 */
class StatVisitor
{
  public:
    virtual ~StatVisitor() = default;

    virtual void beginGroup(const std::string &name,
                            const std::string &desc) = 0;
    virtual void endGroup() = 0;
    virtual void visitScalar(const std::string &name,
                             const std::string &desc,
                             const Scalar &stat) = 0;
    virtual void visitGauge(const std::string &name,
                            const std::string &desc,
                            const Gauge &stat) = 0;
    virtual void visitDistribution(const std::string &name,
                                   const std::string &desc,
                                   const Distribution &stat) = 0;
    virtual void visitHistogram(const std::string &name,
                                const std::string &desc,
                                const Histogram &stat) = 0;
};

/**
 * A group of named stats belonging to one component.  Groups nest via
 * addChild(); names within one group are unique across *both* stat
 * kinds — re-registering a name is a fatal configuration error.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, std::string desc = {})
        : _name(std::move(name)), _desc(std::move(desc))
    {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register a scalar under @p stat_name with a description. */
    Scalar &addScalar(const std::string &stat_name,
                      const std::string &desc);

    /**
     * Register-on-first-use: the scalar in @p slot, registering it
     * under @p stat_name first when @p slot is still null.  Stats that
     * only mean something once an event happens use this so runs where
     * it never happens export nothing extra.
     */
    Scalar &
    lazyScalar(Scalar *&slot, const char *stat_name, const char *desc)
    {
        if (!slot)
            slot = &addScalar(stat_name, desc);
        return *slot;
    }

    /** Register a gauge under @p stat_name. */
    Gauge &addGauge(const std::string &stat_name,
                    const std::string &desc);

    /** Register a distribution under @p stat_name. */
    Distribution &addDistribution(const std::string &stat_name,
                                  const std::string &desc);

    /** Register a log-bucketed histogram under @p stat_name. */
    Histogram &addHistogram(const std::string &stat_name,
                            const std::string &desc);

    /** Attach a child group (not owned). */
    void addChild(StatGroup &child);

    /** Look up a scalar's current value; fatal if missing. */
    double scalarValue(const std::string &stat_name) const;

    /** Look up a gauge's current level; fatal if missing. */
    double gaugeValue(const std::string &stat_name) const;

    /** Look up a distribution; fatal if missing. */
    const Distribution &
    distribution(const std::string &stat_name) const;

    /** Look up a histogram; fatal if missing. */
    const Histogram &histogram(const std::string &stat_name) const;

    /** True if a scalar with this name exists. */
    bool hasScalar(const std::string &stat_name) const;

    /** Drive @p visitor over this group and all children. */
    void accept(StatVisitor &visitor) const;

    const std::string &name() const { return _name; }
    const std::string &description() const { return _desc; }

  private:
    struct ScalarEntry
    {
        Scalar stat;
        std::string desc;
    };
    struct GaugeEntry
    {
        Gauge stat;
        std::string desc;
    };
    struct DistEntry
    {
        Distribution stat;
        std::string desc;
    };
    struct HistEntry
    {
        Histogram stat;
        std::string desc;
    };

    /** Fatal unless @p stat_name is unused across all stat kinds. */
    void checkNameFree(const std::string &stat_name) const;

    std::string _name;
    std::string _desc;
    std::map<std::string, ScalarEntry> scalars;
    std::map<std::string, GaugeEntry> gauges;
    std::map<std::string, DistEntry> dists;
    std::map<std::string, HistEntry> hists;
    std::vector<StatGroup *> children;
};

/**
 * A point-in-time copy of a stat tree (or forest) as a flat, sorted
 * path→value map.  Scalars and gauges appear under their dotted path;
 * distributions contribute "path::count", "path::sum", "path::min",
 * "path::max" and "path::mean"; histograms contribute the same five
 * plus one "path::b<i>" entry per non-empty bucket, so BENCH_*.json
 * records carry full latency distributions, not just means.  Values
 * are kept at full precision, so two snapshots compare equal only if
 * every stat is bit-identical.
 */
class StatSnapshot
{
  public:
    StatSnapshot() = default;

    // The lookup index views into `values` map nodes, so copies must
    // not carry it over; moves may (node addresses survive a move).
    StatSnapshot(const StatSnapshot &other) : values(other.values) {}
    StatSnapshot &
    operator=(const StatSnapshot &other)
    {
        values = other.values;
        index.clear();
        return *this;
    }
    StatSnapshot(StatSnapshot &&) = default;
    StatSnapshot &operator=(StatSnapshot &&) = default;

    /** Capture @p root and everything below it. */
    static StatSnapshot capture(const StatGroup &root);

    /**
     * Visitor that appends into an existing snapshot (forest use).
     * Writing a path the snapshot already holds is fatal, so every
     * stat of a forest appears exactly once.
     */
    class Builder : public StatVisitor
    {
      public:
        explicit Builder(StatSnapshot &snap) : snap(snap) {}

        /**
         * Rollup mode: the visited tree's root group is read as
         * @p root, and only its scalars are recorded, each added onto
         * the entry at its path (a new entry starts from 0).  Visiting
         * several alike trees this way leaves their per-path sums.
         * Gauges, distributions and histograms are skipped: levels
         * and extrema do not sum.
         */
        Builder(StatSnapshot &snap, std::string root)
            : snap(snap), rollupRoot(std::move(root))
        {}

        void beginGroup(const std::string &name,
                        const std::string &desc) override;
        void endGroup() override;
        void visitScalar(const std::string &name,
                         const std::string &desc,
                         const Scalar &stat) override;
        void visitGauge(const std::string &name,
                        const std::string &desc,
                        const Gauge &stat) override;
        void visitDistribution(const std::string &name,
                               const std::string &desc,
                               const Distribution &stat) override;
        void visitHistogram(const std::string &name,
                            const std::string &desc,
                            const Histogram &stat) override;

      private:
        std::string joined(const std::string &leaf) const;
        /** Insert a new entry; fatal if @p path is already there. */
        void put(std::string path, double value);

        StatSnapshot &snap;
        std::vector<std::string> stack;
        /** Root rename of rollup mode; empty otherwise. */
        std::string rollupRoot;
    };

    bool has(const std::string &path) const;

    /** Value at @p path; fatal if absent. */
    double get(const std::string &path) const;

    /** Value at @p path, or @p fallback if absent. */
    double getOr(const std::string &path, double fallback) const;

    /**
     * Insert or overwrite one entry.  Lets harness code attach derived
     * values (classifications, oracle verdicts) next to captured stats
     * so they travel through the same export pipeline.
     */
    void set(const std::string &path, double value)
    {
        values[path] = value;
    }

    const std::map<std::string, double> &entries() const
    {
        return values;
    }

    bool operator==(const StatSnapshot &other) const
    {
        return values == other.values;
    }

  private:
    /** &values[path] via the O(1) index, or nullptr if absent. */
    const double *find(const std::string &path) const;

    std::map<std::string, double> values;

    /**
     * Lazy O(1) path→value index behind has/get/getOr.  Oracles and
     * the telemetry sampler probe the same few paths once per
     * checkpoint or sample over snapshots with hundreds of entries;
     * hashing beats walking the map every time.  Keys view into the
     * `values` node keys (node addresses are stable under insert and
     * move).  Nothing ever erases an entry — set() and the Builder
     * only insert or overwrite in place — so `index.size() !=
     * values.size()` is a complete staleness test.
     */
    mutable std::unordered_map<std::string_view, const double *> index;
};

} // namespace kindle::statistics

#endif // KINDLE_BASE_STATS_HH
