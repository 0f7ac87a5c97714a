/**
 * @file
 * The SSP cache: the NVM-resident metadata area tracking, per tracked
 * NVM page, the original/shadow physical pages and the current/updated
 * cache-line bitmaps (paper §III-B).
 *
 * Entries are indexed by the NVM frame number of the original page.
 * The area's base address is communicated to the translation hardware
 * through an MSR, mirroring the prototype's design.
 *
 * The cache is also the one host record of which pages are tracked:
 * a slot per entry index mirrors the shadow frame and evicted flag of
 * the last entry written there, so the engine never keeps a second
 * index of its own, and every walk over the tracked pages runs in
 * ascending frame order.
 */

#ifndef KINDLE_SSP_SSP_CACHE_HH
#define KINDLE_SSP_SSP_CACHE_HH

#include <cstdint>
#include <vector>

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

    /** Clear the evicted flag after consolidation. */
    void clearEvicted(Addr frame);

    /** Shadow frame of the tracked page at @p frame, or 0. */
    Addr
    shadowOf(Addr frame) const
    {
        // A frame below the pool wraps to a huge index: untracked.
        const std::uint64_t index = (frame - frameBase) >> pageShift;
        return index < slots.size() ? slots[index] & ~evictedBit : 0;
    }

    /** Call @p fn(frame) for every tracked page, in frame order. */
    template <typename Fn>
    void
    forEachTracked(Fn &&fn) const
    {
        for (std::size_t i = 0; i < slots.size(); ++i) {
            if (slots[i] != 0)
                fn(frameBase + (Addr(i) << pageShift));
        }
    }

    /**
     * Call @p fn(frame) for every evicted entry, in frame order.
     * @p fn may rewrite that frame's entry but no later one.
     */
    template <typename Fn>
    void
    forEachEvicted(Fn &&fn) const
    {
        for (std::size_t i = 0; i < slots.size(); ++i) {
            if (slots[i] & evictedBit)
                fn(frameBase + (Addr(i) << pageShift));
        }
    }

    statistics::StatGroup &stats() { return statGroup; }

  private:
    os::KernelMem &kmem;
    Addr regionBase;
    std::uint64_t capacity;
    Addr frameBase;  ///< first NVM user frame (index origin)

    /** Bit 0 of a slot: shadow frames are page-aligned, so it is free. */
    static constexpr Addr evictedBit = 1;

    /**
     * Per entry index, the shadow frame of the allocated entry last
     * written there, or-ed with evictedBit while it carries the
     * evicted flag; 0 when the page is not tracked.  Only write()
     * updates it, and it grows on demand up to the region's capacity.
     * It stands in for the dirty-entry scan a real implementation
     * would run; the authoritative entries live in NVM.
     */
    std::vector<Addr> slots;

    statistics::StatGroup statGroup;
    statistics::Scalar &reads;
    statistics::Scalar &writes;
};

} // namespace kindle::ssp

#endif // KINDLE_SSP_SSP_CACHE_HH
