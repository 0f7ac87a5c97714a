#include "os/frame_alloc.hh"

#include <algorithm>

#include "base/bitfield.hh"
#include "base/intmath.hh"
#include "base/logging.hh"
#include "os/bad_frames.hh"

namespace kindle::os
{

FrameAllocator::FrameAllocator(std::string name, AddrRange zone,
                               KernelMem &kmem_arg, Addr bitmap_addr)
    : _name(std::move(name)),
      _zone(zone),
      kmem(kmem_arg),
      bitmapAddr(bitmap_addr),
      frameCount(zone.size() / pageSize),
      usedWords(divCeil(zone.size() / pageSize, 64), 0),
      statGroup(_name, "zone frame allocator"),
      allocs(statGroup.addScalar("allocs", "frames allocated")),
      frees(statGroup.addScalar("frees", "frames freed")),
      persistWrites(statGroup.addScalar(
          "persistWrites", "durable bitmap updates")),
      framesInUse(statGroup.addGauge("framesInUse",
                                     "frames currently allocated"))
{
    kindle_assert(isAligned(zone.start(), pageSize) &&
                      isAligned(zone.size(), pageSize),
                  "{}: zone must be page aligned", _name);
    kindle_assert(frameCount > 0, "{}: empty zone", _name);
}

std::uint64_t
FrameAllocator::frameIndex(Addr frame) const
{
    kindle_assert(_zone.contains(frame) && isAligned(frame, pageSize),
                  "{}: bad frame address {}", _name, frame);
    return (frame - _zone.start()) >> pageShift;
}

void
FrameAllocator::persistBit(std::uint64_t index)
{
    if (bitmapAddr == invalidAddr)
        return;
    ++persistWrites;
    // Read-modify-write the containing bitmap word, durably.
    const Addr word_addr = bitmapAddr + (index / 64) * 8;
    std::uint64_t word = kmem.mem().readT<std::uint64_t>(word_addr);
    if (testUsed(index))
        word |= (std::uint64_t(1) << (index % 64));
    else
        word &= ~(std::uint64_t(1) << (index % 64));
    kmem.writeBufDurable(word_addr, &word, 8,
                         fault::siteId("alloc.bitmap_pre_fence"));
}

bool
FrameAllocator::isRetiredIndex(std::uint64_t index) const
{
    return badFrames &&
           badFrames->isRetired(_zone.start() + (index << pageShift));
}

Addr
FrameAllocator::alloc()
{
    const Addr frame = tryAlloc();
    if (frame == invalidAddr) {
        kindle_fatal("{}: out of physical frames ({} in zone)", _name,
                     frameCount);
    }
    return frame;
}

Addr
FrameAllocator::tryAlloc()
{
    std::uint64_t index;
    for (;;) {
        if (!freeStack.empty()) {
            index = freeStack.back();
            freeStack.pop_back();
        } else if (bumpNext < frameCount) {
            index = bumpNext++;
        } else {
            ++statGroup.lazyScalar(
                exhaustedAllocs, "exhaustedAllocs",
                "tryAlloc calls that found the zone empty");
            return invalidAddr;
        }
        if (!isRetiredIndex(index))
            break;
        // A frame retired while sitting in the pool: drop it on the
        // floor, permanently.
        ++retiredOut;
    }
    kindle_assert(!testUsed(index), "{}: double allocation", _name);
    setUsed(index);
    ++usedCount;
    ++allocs;
    framesInUse = static_cast<double>(usedCount);
    persistBit(index);
    return _zone.start() + (index << pageShift);
}

void
FrameAllocator::free(Addr frame)
{
    const std::uint64_t index = frameIndex(frame);
    kindle_assert(testUsed(index), "{}: freeing unallocated frame {}",
                  _name, frame);
    clearUsed(index);
    --usedCount;
    ++frees;
    framesInUse = static_cast<double>(usedCount);
    if (isRetiredIndex(index)) {
        // Freed after retirement (the migration path): the bitmap bit
        // clears so recovery sees it unallocated, but the frame never
        // re-enters the pool.
        ++retiredOut;
    } else {
        freeStack.push_back(index);
    }
    persistBit(index);
}

bool
FrameAllocator::isAllocated(Addr frame) const
{
    return testUsed(frameIndex(frame));
}

void
FrameAllocator::setWatermarks(std::uint64_t low, std::uint64_t high)
{
    kindle_assert(low <= high && high <= frameCount,
                  "{}: bad watermarks {}..{} over {} frames", _name, low,
                  high, frameCount);
    lowMark = low;
    highMark = high;
    if (!lowMarkGauge) {
        lowMarkGauge = &statGroup.addGauge(
            "lowWatermark", "reclaim starts at this free-frame level");
        highMarkGauge = &statGroup.addGauge(
            "highWatermark", "reclaim stops at this free-frame level");
    }
    *lowMarkGauge = static_cast<double>(lowMark);
    *highMarkGauge = static_cast<double>(highMark);
}

void
FrameAllocator::recoverFromBitmap()
{
    kindle_assert(persistent(),
                  "{}: recovery on a volatile allocator", _name);
    usedCount = 0;
    retiredOut = 0;
    freeStack.clear();
    const std::uint64_t words = divCeil(frameCount, 64);
    std::vector<std::uint64_t> image(words, 0);
    kmem.readDurableBuf(bitmapAddr, image.data(), words * 8);
    // Bits past frameCount in the tail word are outside the zone.
    if (frameCount % 64 != 0) {
        image[words - 1] &=
            (std::uint64_t(1) << (frameCount % 64)) - 1;
    }
    if (!badFrames || badFrames->retiredCount() == 0) {
        // Common case: no retired frames.  Adopt the image wholesale
        // and only enumerate the *holes* below the allocation high
        // mark; everything above it stays with the bump pointer.  A
        // mostly-full or mostly-empty multi-GiB zone recovers in
        // O(frames/64) instead of O(frames), and the allocation order
        // (lowest free index first) is identical to the full scan's
        // reversed stack.
        usedWords = image;
        std::uint64_t high = 0;  // one past the highest set bit
        for (std::uint64_t w = words; w-- > 0;) {
            if (usedWords[w] != 0) {
                high = w * 64 + 64 -
                       countLeadingZeros(usedWords[w]);
                break;
            }
        }
        bumpNext = high;
        for (std::uint64_t w = 0; w < divCeil(high, 64); ++w) {
            std::uint64_t holes = ~usedWords[w];
            if (w == (high - 1) / 64 && high % 64 != 0)
                holes &= (std::uint64_t(1) << (high % 64)) - 1;
            while (holes != 0) {
                freeStack.push_back(w * 64 +
                                    countTrailingZeros(holes));
                holes &= holes - 1;
            }
            usedCount += std::uint64_t(popCount(usedWords[w]));
        }
        for (std::uint64_t w = divCeil(high, 64); w < words; ++w)
            usedCount += std::uint64_t(popCount(usedWords[w]));
        std::reverse(freeStack.begin(), freeStack.end());
        framesInUse = static_cast<double>(usedCount);
        return;
    }
    // Retired frames exist: fall back to the per-frame scan so the
    // retired/free classification matches the allocation-time rules.
    bumpNext = frameCount;  // everything below is governed by the bitmap
    std::fill(usedWords.begin(), usedWords.end(), 0);
    for (std::uint64_t i = 0; i < frameCount; ++i) {
        const bool bit_set =
            (image[i / 64] >> (i % 64)) & 1;
        if (bit_set) {
            // Retired-but-allocated frames count as used until the
            // post-recovery migration frees them.
            setUsed(i);
            ++usedCount;
        } else if (isRetiredIndex(i)) {
            ++retiredOut;
        } else {
            freeStack.push_back(i);
        }
    }
    // Allocate low frames first after recovery, matching boot order.
    std::reverse(freeStack.begin(), freeStack.end());
    framesInUse = static_cast<double>(usedCount);
}

} // namespace kindle::os
