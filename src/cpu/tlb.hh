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
     * One level as sets of ways: the keys and LRU stamps a scan reads,
     * apart from the payload entries it returns.  L1 is one set.
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

    void demoteToL2(const TlbEntry &entry, std::uint64_t stamp);

    TlbParams _params;
    Level l1;
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
