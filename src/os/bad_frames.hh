/**
 * @file
 * Persistent bad-frame table.
 *
 * When the scrubber finds an uncorrectable line or a frame exhausts
 * its write endurance, the OS retires the frame: it must never be
 * handed out again — not in this boot, and not after any number of
 * crashes, because the damage lives in the cells, not in software
 * state.  The retirement set is therefore a durable bitmap in the NVM
 * metadata area (one bit per frame of the whole device, carved by
 * NvmLayout), written through the same pre-fence-probed durable path
 * the allocator bitmap uses, and reloaded before anything else during
 * recovery so the allocator and the slot-salvage logic can consult it.
 *
 * Retire bits are strictly monotonic: frames are never un-retired, so
 * replaying a retirement after a crash is idempotent by construction.
 */

#ifndef KINDLE_OS_BAD_FRAMES_HH
#define KINDLE_OS_BAD_FRAMES_HH

#include <cstdint>
#include <vector>

#include "base/addr_range.hh"
#include "base/stats.hh"
#include "os/kernel_mem.hh"

namespace kindle::os
{

/** Durable registry of retired NVM frames. */
class BadFrameTable
{
  public:
    /**
     * @param device       The whole NVM range (bit i = frame i of it).
     * @param kmem         Kernel memory gateway.
     * @param bitmap_addr  NVM address of the durable bitmap region.
     */
    BadFrameTable(AddrRange device, KernelMem &kmem, Addr bitmap_addr);

    /** Adopt the durable bitmap (boot and recovery entry point). */
    void loadFromNvm();

    /** Is the frame containing @p addr retired? */
    bool isRetired(Addr addr) const;

    /**
     * Durably retire the frame containing @p addr.  Idempotent;
     * returns false when the frame was already retired.
     */
    bool retire(Addr addr);

    std::uint64_t retiredCount() const { return _retiredCount; }
    std::uint64_t totalFrames() const { return frameCount; }


    /** True iff any frame under [base, base+bytes) is retired. */
    bool anyRetired(Addr base, std::uint64_t bytes) const;

    statistics::StatGroup &stats() { return statGroup; }

  private:
    std::uint64_t frameIndex(Addr addr) const;

    bool
    testRetired(std::uint64_t i) const
    {
        return (retiredWords[i / 64] >> (i % 64)) & 1;
    }

    AddrRange device;
    KernelMem &kmem;
    Addr bitmapAddr;

    std::uint64_t frameCount;
    std::vector<std::uint64_t> retiredWords;
    std::uint64_t _retiredCount = 0;

    statistics::StatGroup statGroup;
    statistics::Scalar &retirements;
    statistics::Scalar &persistWrites;
};

} // namespace kindle::os

#endif // KINDLE_OS_BAD_FRAMES_HH
