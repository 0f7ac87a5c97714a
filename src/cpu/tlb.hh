/**
 * @file
 * Two-level data TLB with the per-entry extensions used by the SSP and
 * HSCC prototypes.
 *
 * SSP extends each entry with the supplementary (shadow) physical page
 * and two cache-line bitmaps — `current` selecting which of the two
 * pages holds the latest committed copy of each line, and `updated`
 * tracking lines written during the open consistency interval.
 *
 * HSCC extends each entry with the page access count, incremented when
 * a data access misses in the LLC, and written out to the PTE on TLB
 * eviction or once per migration interval.
 */

#ifndef KINDLE_CPU_TLB_HH
#define KINDLE_CPU_TLB_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"
#include "cpu/pagetable_defs.hh"

namespace kindle::cpu
{

/** A cached translation plus prototype-extension metadata. */
struct TlbEntry
{
    Pid pid = 0;
    std::uint64_t vpn = 0;
    std::uint64_t pfn = 0;
    bool writable = false;
    bool nvmBacked = false;

    /** Physical address of the backing leaf PTE (for hardware
     *  write-back of HSCC access counts). */
    Addr pteAddr = 0;

    /** @name SSP extension fields. */
    /// @{
    bool sspTracked = false;      ///< page is in the MSR NVM range
    std::uint64_t shadowPfn = 0;  ///< supplementary physical page
    std::uint64_t currentBits = 0; ///< per-line: which copy is current
    std::uint64_t updatedBits = 0; ///< per-line: written this interval
    /// @}

    /** @name HSCC extension fields. */
    /// @{
    unsigned accessCount = 0;
    bool countSyncedThisInterval = false;
    bool hsccRemapped = false;  ///< translation points at a DRAM copy
    /// @}
};

/** Geometry of the two TLB levels. */
struct TlbParams
{
    unsigned l1Entries = 64;
    unsigned l2Entries = 1536;
    Tick l2HitLatency = 3 * oneNs;  ///< extra cost of an L2 TLB hit
};

/**
 * The TLB pair.  Lookup tries L1 then L2; fills install into both.
 * Evictions of valid entries invoke the eviction callback so prototype
 * engines can spill per-entry metadata (SSP bitmaps, HSCC counts).
 */
class Tlb
{
  public:
    /**
     * @param on_evict Called with each valid entry being replaced,
     *                 still fully populated (may be empty).
     */
    explicit Tlb(const TlbParams &params,
                 std::function<void(const TlbEntry &)> on_evict = {});

    /**
     * Look up (pid, vpn).
     * @param[out] extra_latency L2-hit penalty if served from L2.
     * @return pointer to the (promoted) L1 entry, or nullptr on miss.
     */
    TlbEntry *lookup(Pid pid, std::uint64_t vpn, Tick &extra_latency);

    /**
     * Install a translation after a walk; returns the L1 entry.
     * Evicted valid entries are passed to the eviction callback.
     */
    TlbEntry &fill(const TlbEntry &entry);

    /** Invalidate one page's translation (both levels). */
    void invalidate(Pid pid, std::uint64_t vpn);

    /** Invalidate everything, firing the evict callback per valid
     *  entry. */
    void flushAll();

    /** Invalidate everything silently (power loss). */
    void reset();

    /** Visit every valid L1+L2 entry (SSP interval spills). */
    void forEachValid(const std::function<void(TlbEntry &)> &fn);

    statistics::StatGroup &stats() { return statGroup; }
    const statistics::StatGroup &stats() const { return statGroup; }

  private:
    /** Packed tag of one slot; a zero vpnKey marks it empty. */
    struct Key
    {
        std::uint64_t vpnKey = 0;  ///< (vpn << 1) | 1
        Pid pid = 0;

        bool valid() const { return vpnKey != 0; }
        bool operator==(const Key &) const = default;
    };

    static Key
    keyOf(Pid pid, std::uint64_t vpn)
    {
        return {(vpn << 1) | 1, pid};
    }

    /**
     * L2: sets of ways holding the keys and LRU stamps a scan reads,
     * apart from the payload entries it returns.
     */
    struct Level
    {
        Level(unsigned size, unsigned ways_per_set);

        static constexpr std::size_t none = ~std::size_t{0};

        /** First slot of @p vpn's set. */
        std::size_t
        setBase(std::uint64_t vpn) const
        {
            return (vpn & setMask) * ways;
        }

        /** Slot holding (pid, vpn), or none. */
        std::size_t find(Pid pid, std::uint64_t vpn) const;

        /** First empty slot of @p vpn's set, else its LRU slot. */
        std::size_t victim(std::uint64_t vpn) const;

        unsigned ways;
        std::uint64_t setMask;
        std::vector<Key> keys;
        std::vector<std::uint64_t> stamps;  ///< larger = newer
        std::vector<TlbEntry> entries;
    };

    /**
     * L1: one fully associative set.  Nothing on its hit or fill path
     * scans the slots: an open-addressed (pid, vpn) -> slot index finds
     * a tag, a free-slot bitmask yields the lowest-index empty slot and
     * an intrusive list in stamp order yields the least recently used
     * one.  Slots keep their stamps because a demoted entry carries
     * its stamp into L2.
     */
    struct AssocLevel
    {
        explicit AssocLevel(unsigned size);

        /** Slot holding (pid, vpn), or Level::none. */
        std::size_t
        find(Pid pid, std::uint64_t vpn) const
        {
            const Key key = keyOf(pid, vpn);
            for (std::size_t pos = home(key);; pos = (pos + 1) & indexMask) {
                const std::uint32_t ref = index[pos];
                if (ref == 0)
                    return Level::none;
                if (keys[ref - 1] == key)
                    return ref - 1;
            }
        }

        /** Lowest-index empty slot, else the least recently used. */
        std::size_t victim() const;

        /** Make @p slot the most recently used, stamped @p stamp. */
        void
        touch(std::size_t slot, std::uint64_t stamp)
        {
            stamps[slot] = stamp;
            unlink(slot);
            linkNewest(slot);
        }

        /** Tag the empty @p slot with @p key as the newest entry. */
        void insert(std::size_t slot, const Key &key, std::uint64_t stamp);

        /** Empty the valid @p slot. */
        void erase(std::size_t slot);

        /** Empty every slot. */
        void clear();

        std::size_t
        home(const Key &key) const
        {
            const std::uint64_t h =
                (key.vpnKey ^ (std::uint64_t{key.pid} << 44)) *
                0x9e3779b97f4a7c15ULL;
            return static_cast<std::size_t>(h >> indexShift);
        }

        void
        unlink(std::size_t slot)
        {
            next[prev[slot]] = next[slot];
            prev[next[slot]] = prev[slot];
        }

        void
        linkNewest(std::size_t slot)
        {
            const std::uint32_t last = prev[sentinel];
            next[last] = static_cast<std::uint32_t>(slot);
            prev[slot] = last;
            next[slot] = sentinel;
            prev[sentinel] = static_cast<std::uint32_t>(slot);
        }

        std::vector<Key> keys;
        std::vector<std::uint64_t> stamps;  ///< larger = newer
        std::vector<TlbEntry> entries;

        /** Open-addressed index: slot + 1 per position, 0 = empty. */
        std::vector<std::uint32_t> index;
        std::uint64_t indexMask;
        unsigned indexShift;

        /** Bit i % 64 of word i / 64 is set while slot i is empty. */
        std::vector<std::uint64_t> freeBits;
        std::size_t validCount = 0;

        /** LRU list over slots; the sentinel's next is the oldest. */
        std::uint32_t sentinel;
        std::vector<std::uint32_t> prev;
        std::vector<std::uint32_t> next;
    };

    void demoteToL2(const TlbEntry &entry, std::uint64_t stamp);

    TlbParams _params;
    AssocLevel l1;
    Level l2;
    std::uint64_t useStamp = 0;
    std::function<void(const TlbEntry &)> onEvict;

    /** Report a displaced valid entry to the eviction callback. */
    void
    fireEvict(const TlbEntry &entry)
    {
        if (onEvict)
            onEvict(entry);
    }

    statistics::StatGroup statGroup;
    statistics::Scalar &l1Hits;
    statistics::Scalar &l2Hits;
    statistics::Scalar &missCount;
    statistics::Scalar &evictCount;
};

} // namespace kindle::cpu

#endif // KINDLE_CPU_TLB_HH
