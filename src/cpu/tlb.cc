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

Tlb::AssocLevel::AssocLevel(unsigned size)
    : keys(size),
      stamps(size),
      entries(size),
      // At most a quarter of the index is in use, so probe runs stay
      // short.
      index(std::uint64_t{4} << ceilLog2(size)),
      indexMask(index.size() - 1),
      indexShift(64 - floorLog2(index.size())),
      freeBits(divCeil(size, 64)),
      sentinel(size),
      prev(size + 1),
      next(size + 1)
{
    clear();
}

std::size_t
Tlb::AssocLevel::victim() const
{
    if (validCount < keys.size()) {
        for (std::size_t w = 0;; ++w) {
            if (freeBits[w] != 0)
                return w * 64 + countTrailingZeros(freeBits[w]);
        }
    }
    return next[sentinel];
}

void
Tlb::AssocLevel::insert(std::size_t slot, const Key &key,
                        std::uint64_t stamp)
{
    std::size_t pos = home(key);
    for (; index[pos] != 0; pos = (pos + 1) & indexMask) {
        kindle_assert(keys[index[pos] - 1] != key,
                      "L1 TLB fill of a resident translation");
    }
    index[pos] = static_cast<std::uint32_t>(slot + 1);
    keys[slot] = key;
    stamps[slot] = stamp;
    freeBits[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    ++validCount;
    linkNewest(slot);
}

void
Tlb::AssocLevel::erase(std::size_t slot)
{
    std::size_t hole = home(keys[slot]);
    while (index[hole] != slot + 1)
        hole = (hole + 1) & indexMask;
    // Backward-shift deletion: pull later members of the probe run
    // into the hole unless that would move one before its home.
    for (std::size_t pos = (hole + 1) & indexMask; index[pos] != 0;
         pos = (pos + 1) & indexMask) {
        const std::size_t want = home(keys[index[pos] - 1]);
        if (((pos - want) & indexMask) >= ((pos - hole) & indexMask)) {
            index[hole] = index[pos];
            hole = pos;
        }
    }
    index[hole] = 0;
    keys[slot] = Key{};
    freeBits[slot / 64] |= std::uint64_t{1} << (slot % 64);
    --validCount;
    unlink(slot);
}

void
Tlb::AssocLevel::clear()
{
    std::fill(keys.begin(), keys.end(), Key{});
    std::fill(index.begin(), index.end(), 0);
    std::fill(freeBits.begin(), freeBits.end(), ~std::uint64_t{0});
    if (keys.size() % 64 != 0)
        freeBits.back() = (std::uint64_t{1} << (keys.size() % 64)) - 1;
    validCount = 0;
    prev[sentinel] = next[sentinel] = sentinel;
}

Tlb::Tlb(const TlbParams &params,
         std::function<void(const TlbEntry &)> on_evict)
    : _params(params),
      l1(params.l1Entries),
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
    const std::size_t slot = l1.victim();
    if (l1.keys[slot].valid()) {
        demoteToL2(l1.entries[slot], l1.stamps[slot]);
        l1.erase(slot);
    }
    l1.insert(slot, keyOf(entry.pid, entry.vpn), ++useStamp);
    l1.entries[slot] = entry;
    return l1.entries[slot];
}

TlbEntry *
Tlb::lookup(Pid pid, std::uint64_t vpn, Tick &extra_latency)
{
    extra_latency = 0;
    if (const std::size_t i = l1.find(pid, vpn); i != Level::none) {
        ++l1Hits;
        l1.touch(i, ++useStamp);
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
        l1.erase(i);
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
    for (std::size_t i = 0; i < l1.keys.size(); ++i) {
        if (l1.keys[i].valid()) {
            ++evictCount;
            fireEvict(l1.entries[i]);
        }
    }
    l1.clear();
    for (std::size_t i = 0; i < l2.keys.size(); ++i) {
        if (l2.keys[i].valid()) {
            ++evictCount;
            fireEvict(l2.entries[i]);
            l2.keys[i] = Key{};
        }
    }
}

void
Tlb::reset()
{
    l1.clear();
    std::fill(l2.keys.begin(), l2.keys.end(), Key{});
}

void
Tlb::forEachValid(const std::function<void(TlbEntry &)> &fn)
{
    for (std::size_t i = 0; i < l1.keys.size(); ++i) {
        if (l1.keys[i].valid())
            fn(l1.entries[i]);
    }
    for (std::size_t i = 0; i < l2.keys.size(); ++i) {
        if (l2.keys[i].valid())
            fn(l2.entries[i]);
    }
}

} // namespace kindle::cpu
