/**
 * @file
 * The SSP cache: the NVM-resident metadata area tracking, per tracked
 * NVM page, the original/shadow physical pages and the current/updated
 * cache-line bitmaps (paper §III-B).
 *
 * Entries are indexed by the NVM frame number of the original page.
 * The area's base address is communicated to the translation hardware
 * through an MSR, mirroring the prototype's design.
 */

#ifndef KINDLE_SSP_SSP_CACHE_HH
#define KINDLE_SSP_SSP_CACHE_HH

#include <cstdint>
#include <unordered_set>

#include "base/stats.hh"
#include "os/kernel_mem.hh"
#include "os/nvm_layout.hh"

namespace kindle::ssp
{

/** One 64-byte SSP cache entry. */
struct SspCacheEntry
{
    std::uint32_t magic = 0;
    std::uint32_t flags = 0;
    std::uint64_t origFrame = 0;
    std::uint64_t shadowFrame = 0;
    std::uint64_t currentBits = 0;  ///< which copy holds each line
    std::uint64_t pendingBits = 0;  ///< lines awaiting consolidation
    std::uint64_t vpn = 0;
    std::uint32_t pid = 0;
    std::uint32_t pad = 0;
    std::uint64_t pad2 = 0;

    static constexpr std::uint32_t magicValue = 0x53535043;  // "SSPC"
    static constexpr std::uint32_t flagAllocated = 1u << 0;
    static constexpr std::uint32_t flagEvicted = 1u << 1;

    bool allocated() const { return flags & flagAllocated; }
    bool evicted() const { return flags & flagEvicted; }
};

static_assert(sizeof(SspCacheEntry) == 64);

/** Accessor over the metadata region. */
class SspCache
{
  public:
    SspCache(os::KernelMem &kmem, const os::NvmLayout &layout);

    /** Base physical address (programmed into the MSR). */
    Addr base() const { return regionBase; }

    /** Entry address for the page at NVM frame @p frame. */
    Addr entryAddr(Addr frame) const;

    /** Timed read of one entry. */
    SspCacheEntry read(Addr frame);

    /** Timed durable write of one entry. */
    void write(Addr frame, const SspCacheEntry &entry);

    /**
     * Hardware-side spill: merge @p updated_bits into the entry and
     * optionally mark it TLB-evicted.  One memory round trip.
     */
    void mergeBits(Addr frame, std::uint64_t updated_bits,
                   bool mark_evicted);

    /** Frames whose entries carry the evicted flag (dirty list). */
    const std::unordered_set<Addr> &evictedFrames() const
    {
        return evictedSet;
    }

    /** Clear the evicted flag after consolidation. */
    void clearEvicted(Addr frame);

    statistics::StatGroup &stats() { return statGroup; }

  private:
    os::KernelMem &kmem;
    Addr regionBase;
    std::uint64_t capacity;
    Addr frameBase;  ///< first NVM user frame (index origin)

    /**
     * Host-side index of entries with the evicted flag set, standing
     * in for the dirty-entry queue a real implementation would keep;
     * the authoritative flags live in the NVM entries themselves.
     */
    std::unordered_set<Addr> evictedSet;

    statistics::StatGroup statGroup;
    statistics::Scalar &reads;
    statistics::Scalar &writes;
};

} // namespace kindle::ssp

#endif // KINDLE_SSP_SSP_CACHE_HH
