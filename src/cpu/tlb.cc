#include "cpu/tlb.hh"

#include <algorithm>

#include "base/intmath.hh"
#include "base/logging.hh"

namespace kindle::cpu
{

namespace
{

/** L2 associativity; sets are derived from the entry count. */
constexpr unsigned l2Ways = 12;

} // namespace

Tlb::Level::Level(unsigned size, unsigned ways_per_set)
    : ways(ways_per_set),
      setMask(size / ways_per_set - 1),
      keys(size),
      stamps(size),
      entries(size)
{}

std::size_t
Tlb::Level::find(Pid pid, std::uint64_t vpn) const
{
    const Key key = keyOf(pid, vpn);
    const std::size_t base = setBase(vpn);
    for (std::size_t i = base; i < base + ways; ++i) {
        if (keys[i] == key)
            return i;
    }
    return none;
}

std::size_t
Tlb::Level::victim(std::uint64_t vpn) const
{
    const std::size_t base = setBase(vpn);
    std::size_t v = base;
    for (std::size_t i = base; i < base + ways; ++i) {
        if (!keys[i].valid())
            return i;
        if (stamps[i] < stamps[v])
            v = i;
    }
    return v;
}

Tlb::Tlb(const TlbParams &params,
         std::function<void(const TlbEntry &)> on_evict)
    : _params(params),
      l1(params.l1Entries, params.l1Entries),
      l2(params.l2Entries, l2Ways),
      onEvict(std::move(on_evict)),
      statGroup("tlb", "two-level TLB"),
      l1Hits(statGroup.addScalar("l1Hits", "L1 TLB hits")),
      l2Hits(statGroup.addScalar("l2Hits", "L2 TLB hits")),
      missCount(statGroup.addScalar("misses", "full TLB misses")),
      evictCount(statGroup.addScalar("evictions",
                                     "valid entries evicted"))
{
    kindle_assert(params.l1Entries > 0, "L1 TLB needs entries");
    kindle_assert(params.l2Entries % l2Ways == 0,
                  "L2 TLB entry count must be a multiple of {}", l2Ways);
    kindle_assert(isPowerOf2(params.l2Entries / l2Ways),
                  "L2 TLB set count must be a power of two");
}

void
Tlb::demoteToL2(const TlbEntry &entry, std::uint64_t stamp)
{
    const std::size_t slot = l2.victim(entry.vpn);
    if (l2.keys[slot].valid()) {
        ++evictCount;
        fireEvict(l2.entries[slot]);
    }
    l2.keys[slot] = keyOf(entry.pid, entry.vpn);
    l2.stamps[slot] = stamp;
    l2.entries[slot] = entry;
}

TlbEntry &
Tlb::fill(const TlbEntry &entry)
{
    const std::size_t slot = l1.victim(entry.vpn);
    if (l1.keys[slot].valid())
        demoteToL2(l1.entries[slot], l1.stamps[slot]);
    l1.keys[slot] = keyOf(entry.pid, entry.vpn);
    l1.stamps[slot] = ++useStamp;
    l1.entries[slot] = entry;
    return l1.entries[slot];
}

TlbEntry *
Tlb::lookup(Pid pid, std::uint64_t vpn, Tick &extra_latency)
{
    extra_latency = 0;
    if (const std::size_t i = l1.find(pid, vpn); i != Level::none) {
        ++l1Hits;
        l1.stamps[i] = ++useStamp;
        return &l1.entries[i];
    }

    // L2 is set-associative on the VPN; the two levels are exclusive,
    // so an L2 hit swaps the entry up into L1.
    if (const std::size_t i = l2.find(pid, vpn); i != Level::none) {
        ++l2Hits;
        extra_latency = _params.l2HitLatency;
        const TlbEntry promoted = l2.entries[i];
        l2.keys[i] = Key{};
        return &fill(promoted);
    }

    ++missCount;
    return nullptr;
}

void
Tlb::invalidate(Pid pid, std::uint64_t vpn)
{
    if (const std::size_t i = l1.find(pid, vpn); i != Level::none)
        l1.keys[i] = Key{};
    const Key key = keyOf(pid, vpn);
    const std::size_t base = l2.setBase(vpn);
    for (std::size_t i = base; i < base + l2.ways; ++i) {
        if (l2.keys[i] == key)
            l2.keys[i] = Key{};
    }
}

void
Tlb::flushAll()
{
    for (Level *level : {&l1, &l2}) {
        for (std::size_t i = 0; i < level->keys.size(); ++i) {
            if (level->keys[i].valid()) {
                ++evictCount;
                fireEvict(level->entries[i]);
                level->keys[i] = Key{};
            }
        }
    }
}

void
Tlb::reset()
{
    std::fill(l1.keys.begin(), l1.keys.end(), Key{});
    std::fill(l2.keys.begin(), l2.keys.end(), Key{});
}

void
Tlb::forEachValid(const std::function<void(TlbEntry &)> &fn)
{
    for (Level *level : {&l1, &l2}) {
        for (std::size_t i = 0; i < level->keys.size(); ++i) {
            if (level->keys[i].valid())
                fn(level->entries[i]);
        }
    }
}

} // namespace kindle::cpu
