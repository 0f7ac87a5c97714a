/**
 * @file
 * One level of set-associative, write-back, write-allocate cache.
 */

#ifndef KINDLE_CACHE_CACHE_HH
#define KINDLE_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "cache/mem_sink.hh"

namespace kindle::cache
{

/** Geometry and latency of one cache level. */
struct CacheParams
{
    std::string name;
    std::uint64_t sizeBytes;
    unsigned associativity;
    Tick hitLatency;     ///< tag+data on a hit
    Tick lookupLatency;  ///< tag check paid on the miss path
};

/**
 * A single cache level.  Tag-accurate and timing-accurate but holds no
 * data — functional values live in the backing stores, with NVM
 * durability tracked by dirty-line writeback/flush notifications that
 * the bottom of the hierarchy forwards to the memory system.
 */
class Cache : public MemSink
{
  public:
    Cache(const CacheParams &params, MemSink &downstream);

    /** Handle a read/write/writeback of one line. */
    Tick request(mem::MemCmd cmd, Addr line_addr, Tick now) override;

    /**
     * clwb semantics for one line: if present and dirty, push the data
     * down (keeping the line resident, now clean).
     * @param[out] was_dirty set true if a writeback was performed.
     * @return latency.
     */
    Tick flushLine(Addr line_addr, Tick now, bool &was_dirty);

    /**
     * Invalidate one line, writing it back first if dirty.
     * @return latency.
     */
    Tick invalidateLine(Addr line_addr, Tick now);

    /** Write back every dirty line and invalidate everything. */
    Tick flushAll(Tick now);

    /** Drop all contents without writeback (power loss). */
    void invalidateAll();

    /** True if the line is currently resident. */
    bool contains(Addr line_addr) const;

    /** True if resident and dirty. */
    bool isDirty(Addr line_addr) const;

    const CacheParams &params() const { return _params; }
    statistics::StatGroup &stats() { return statGroup; }
    const statistics::StatGroup &stats() const { return statGroup; }

    /** Fraction of requests that hit (for tests/benches). */
    double hitRate() const;

    /** Demand misses so far (the "misses" stat, without a lookup). */
    double missCount() const { return misses.value(); }

  private:
    /** Way index meaning "not resident". */
    static constexpr std::size_t noWay = ~std::size_t{0};

    std::uint64_t
    setIndex(Addr line_addr) const
    {
        return (line_addr >> lineShift) & (numSets - 1);
    }

    /** Tag key of a line: (tag << 1) | 1, so 0 never names a line. */
    std::uint64_t
    keyOf(Addr line_addr) const
    {
        return ((line_addr >> tagShift) << 1) | 1;
    }

    Addr
    addrOf(std::uint64_t key, std::uint64_t set) const
    {
        return ((key >> 1) << tagShift) | (set << lineShift);
    }

    /** Way index holding @p line_addr, or noWay. */
    std::size_t find(Addr line_addr) const;

    /** The first empty way of a set, else its least recently used. */
    std::size_t victimIn(std::uint64_t set) const;

    CacheParams _params;
    MemSink &below;

    std::uint64_t numSets;
    unsigned tagShift;  ///< lineShift + log2(numSets)

    // Tag state as parallel arrays of numSets * associativity,
    // row-major, so a lookup reads only one set's keys.
    std::vector<std::uint64_t> keys;    ///< 0 marks an empty way
    std::vector<std::uint64_t> stamps;  ///< last use; larger = newer
    std::vector<std::uint8_t> dirty;
    std::uint64_t useStamp = 0;

    statistics::StatGroup statGroup;
    statistics::Scalar &hits;
    statistics::Scalar &misses;
    statistics::Scalar &evictions;
    statistics::Scalar &writebacks;
    statistics::Scalar &flushes;
};

} // namespace kindle::cache

#endif // KINDLE_CACHE_CACHE_HH
