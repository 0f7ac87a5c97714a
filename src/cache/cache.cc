#include "cache/cache.hh"

#include <algorithm>

#include "base/intmath.hh"
#include "base/logging.hh"

namespace kindle::cache
{

Cache::Cache(const CacheParams &params, MemSink &downstream)
    : _params(params),
      below(downstream),
      numSets(params.sizeBytes / (lineSize * params.associativity)),
      tagShift(lineShift + floorLog2(numSets)),
      keys(numSets * params.associativity),
      stamps(numSets * params.associativity),
      dirty(numSets * params.associativity),
      statGroup(params.name, "set-associative write-back cache"),
      hits(statGroup.addScalar("hits", "demand hits")),
      misses(statGroup.addScalar("misses", "demand misses")),
      evictions(statGroup.addScalar("evictions", "lines evicted")),
      writebacks(statGroup.addScalar("writebacks",
                                     "dirty lines pushed down")),
      flushes(statGroup.addScalar("flushes", "clwb/invalidate flushes"))
{
    kindle_assert(params.associativity > 0, "cache needs ways");
    kindle_assert(numSets > 0 && isPowerOf2(numSets),
                  "{}: set count must be a power of two", params.name);
}

std::size_t
Cache::find(Addr line_addr) const
{
    const std::uint64_t key = keyOf(line_addr);
    const std::size_t base = setIndex(line_addr) * _params.associativity;
    for (unsigned w = 0; w < _params.associativity; ++w) {
        if (keys[base + w] == key)
            return base + w;
    }
    return noWay;
}

std::size_t
Cache::victimIn(std::uint64_t set) const
{
    const std::size_t base = set * _params.associativity;
    std::size_t victim = base;
    for (std::size_t i = base; i < base + _params.associativity; ++i) {
        if (keys[i] == 0)
            return i;
        if (stamps[i] < stamps[victim])
            victim = i;
    }
    return victim;
}

Tick
Cache::request(mem::MemCmd cmd, Addr line_addr, Tick now)
{
    kindle_assert(isAligned(line_addr, lineSize),
                  "{}: unaligned line request", _params.name);
    const bool is_write = mem::isWriteCmd(cmd);

    if (const std::size_t hit = find(line_addr); hit != noWay) {
        ++hits;
        stamps[hit] = ++useStamp;
        if (is_write)
            dirty[hit] = 1;
        return _params.hitLatency;
    }

    ++misses;
    Tick latency = _params.lookupLatency;

    // Write-allocate: fetch the line from below on read and write
    // misses.  An incoming writeback carries a full line, so it
    // allocates without a fetch.
    if (cmd != mem::MemCmd::writeback) {
        latency += below.request(mem::MemCmd::read, line_addr,
                                 now + latency);
    }

    const std::uint64_t set = setIndex(line_addr);
    const std::size_t victim = victimIn(set);
    if (keys[victim] != 0) {
        ++evictions;
        if (dirty[victim]) {
            ++writebacks;
            latency += below.request(mem::MemCmd::writeback,
                                     addrOf(keys[victim], set),
                                     now + latency);
        }
    }

    keys[victim] = keyOf(line_addr);
    dirty[victim] = is_write;
    stamps[victim] = ++useStamp;

    return latency + _params.hitLatency;
}

Tick
Cache::flushLine(Addr line_addr, Tick now, bool &was_dirty)
{
    Tick latency = _params.lookupLatency;
    const std::size_t way = find(line_addr);
    if (way != noWay && dirty[way]) {
        was_dirty = true;
        ++flushes;
        ++writebacks;
        dirty[way] = 0;
        latency += below.request(mem::MemCmd::writeback, line_addr,
                                 now + latency);
    }
    return latency;
}

Tick
Cache::invalidateLine(Addr line_addr, Tick now)
{
    Tick latency = _params.lookupLatency;
    if (const std::size_t way = find(line_addr); way != noWay) {
        if (dirty[way]) {
            ++writebacks;
            latency += below.request(mem::MemCmd::writeback, line_addr,
                                     now + latency);
        }
        keys[way] = 0;
        dirty[way] = 0;
    }
    return latency;
}

Tick
Cache::flushAll(Tick now)
{
    Tick latency = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (keys[i] != 0 && dirty[i]) {
            ++writebacks;
            const std::uint64_t set = i / _params.associativity;
            latency += below.request(mem::MemCmd::writeback,
                                     addrOf(keys[i], set), now + latency);
        }
    }
    invalidateAll();
    return latency;
}

void
Cache::invalidateAll()
{
    std::fill(keys.begin(), keys.end(), 0);
    std::fill(dirty.begin(), dirty.end(), 0);
}

bool
Cache::contains(Addr line_addr) const
{
    return find(line_addr) != noWay;
}

bool
Cache::isDirty(Addr line_addr) const
{
    const std::size_t way = find(line_addr);
    return way != noWay && dirty[way];
}

double
Cache::hitRate() const
{
    const double total = hits.value() + misses.value();
    return total > 0 ? hits.value() / total : 0.0;
}

} // namespace kindle::cache
