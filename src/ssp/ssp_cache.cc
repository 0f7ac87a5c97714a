#include "ssp/ssp_cache.hh"

#include "base/logging.hh"

namespace kindle::ssp
{

SspCache::SspCache(os::KernelMem &kmem_arg,
                   const os::NvmLayout &layout)
    : kmem(kmem_arg),
      regionBase(layout.sspCache),
      capacity(layout.sspCacheBytes / sizeof(SspCacheEntry)),
      frameBase(layout.userPool),
      statGroup("sspCache", "SSP metadata cache region"),
      reads(statGroup.addScalar("reads", "metadata entries read")),
      writes(statGroup.addScalar("writes", "metadata entries written"))
{
    kindle_assert(capacity > 0, "SSP cache region too small");
}

Addr
SspCache::entryAddr(Addr frame) const
{
    kindle_assert(frame >= frameBase && isAligned(frame, pageSize),
                  "SSP cache lookup for non-pool frame {}", frame);
    const std::uint64_t index = (frame - frameBase) >> pageShift;
    kindle_assert(index < capacity, "SSP cache index out of range");
    return regionBase + index * sizeof(SspCacheEntry);
}

SspCacheEntry
SspCache::read(Addr frame)
{
    ++reads;
    SspCacheEntry entry;
    const Addr addr = entryAddr(frame);
    // Metadata is cacheable: hot entries are served by the hierarchy
    // (this is the fill path of the extended translation hardware).
    kmem.readBuf(addr, &entry, sizeof(entry));
    return entry;
}

void
SspCache::write(Addr frame, const SspCacheEntry &entry)
{
    ++writes;
    // Cached store; durability is established by the clwb+fence at
    // the enclosing consistency-interval commit.
    kmem.writeBuf(entryAddr(frame), &entry, sizeof(entry));

    const std::uint64_t index = (frame - frameBase) >> pageShift;
    Addr slot = 0;
    if (entry.allocated()) {
        kindle_assert(entry.shadowFrame != 0 &&
                          isAligned(entry.shadowFrame, pageSize),
                      "SSP entry for {} has shadow {}", frame,
                      entry.shadowFrame);
        slot = entry.shadowFrame | (entry.evicted() ? evictedBit : 0);
    }
    if (index >= slots.size()) {
        if (slot == 0)
            return;
        slots.resize(index + 1);
    }
    slots[index] = slot;
}

void
SspCache::mergeBits(Addr frame, std::uint64_t updated_bits,
                    bool mark_evicted)
{
    SspCacheEntry entry = read(frame);
    kindle_assert(entry.allocated(),
                  "bitmap spill to an unallocated SSP entry");
    entry.pendingBits |= updated_bits;
    // Committed lines flip which physical page holds the latest copy.
    entry.currentBits ^= updated_bits;
    if (mark_evicted)
        entry.flags |= SspCacheEntry::flagEvicted;
    write(frame, entry);
}

void
SspCache::clearEvicted(Addr frame)
{
    SspCacheEntry entry = read(frame);
    entry.flags &= ~SspCacheEntry::flagEvicted;
    entry.pendingBits = 0;
    write(frame, entry);
}

} // namespace kindle::ssp
