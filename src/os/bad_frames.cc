/**
 * @file
 * Persistent bad-frame table implementation.
 */

#include "os/bad_frames.hh"

#include "base/bitfield.hh"
#include "base/intmath.hh"
#include "base/logging.hh"
#include "fault/fault.hh"

namespace kindle::os
{

BadFrameTable::BadFrameTable(AddrRange device, KernelMem &kmem,
                             Addr bitmap_addr)
    : device(device),
      kmem(kmem),
      bitmapAddr(bitmap_addr),
      frameCount(device.size() / pageSize),
      retiredWords(divCeil(device.size() / pageSize, 64), 0),
      statGroup("badFrames", "persistent bad-frame table"),
      retirements(statGroup.addScalar("retirements",
                                      "frames durably retired")),
      persistWrites(statGroup.addScalar(
          "persistWrites", "durable bitmap updates"))
{
    kindle_assert(frameCount > 0, "bad-frame table over an empty device");
}

std::uint64_t
BadFrameTable::frameIndex(Addr addr) const
{
    kindle_assert(device.contains(addr),
                  "bad-frame lookup at {} outside the NVM device", addr);
    return (addr - device.start()) >> pageShift;
}

void
BadFrameTable::loadFromNvm()
{
    const std::uint64_t words = divCeil(frameCount, 64);
    kmem.readDurableBuf(bitmapAddr, retiredWords.data(), words * 8);
    // Mask bits past frameCount in the tail word; they are outside
    // the device and must never classify a frame as retired.
    if (frameCount % 64 != 0) {
        retiredWords[words - 1] &=
            (std::uint64_t(1) << (frameCount % 64)) - 1;
    }
    _retiredCount = 0;
    for (std::uint64_t w = 0; w < words; ++w)
        _retiredCount += std::uint64_t(popCount(retiredWords[w]));
}

bool
BadFrameTable::isRetired(Addr addr) const
{
    return testRetired(frameIndex(addr));
}

bool
BadFrameTable::retire(Addr addr)
{
    const std::uint64_t index = frameIndex(addr);
    if (testRetired(index))
        return false;
    retiredWords[index / 64] |= std::uint64_t(1) << (index % 64);
    ++_retiredCount;
    ++retirements;
    ++persistWrites;
    // Durable RMW of the containing bitmap word.  The bit is strictly
    // one-way, so replaying this after a crash converges.
    const Addr word_addr = bitmapAddr + (index / 64) * 8;
    std::uint64_t word = 0;
    kmem.readDurableBuf(word_addr, &word, 8);
    word |= std::uint64_t(1) << (index % 64);
    kmem.writeBufDurable(word_addr, &word, 8,
                         fault::siteId("badframe.retire_pre_fence"));
    return true;
}

bool
BadFrameTable::anyRetired(Addr base, std::uint64_t bytes) const
{
    if (_retiredCount == 0 || bytes == 0)
        return false;
    const Addr first = roundDown(base, pageSize);
    for (Addr frame = first; frame < base + bytes; frame += pageSize) {
        if (testRetired(frameIndex(frame)))
            return true;
    }
    return false;
}

} // namespace kindle::os
