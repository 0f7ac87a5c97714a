/**
 * @file
 * Sparse byte-addressable backing stores for simulated physical memory.
 *
 * Two flavours exist:
 *
 *  - BackingStore: a plain sparse, line-granular store.  DRAM uses
 *    one directly; its contents vanish on crash.
 *  - DurableStore: an NVM store with a *pending-line overlay* and an
 *    *in-flight controller stage*.  Writes land in the overlay first
 *    (they are architecturally in volatile CPU caches); when the cache
 *    hierarchy writes a line back — or software issues clwb — the line
 *    moves to the controller's posted-write buffer, tagged with the
 *    tick at which the device drain completes; only then is it truly
 *    durable.  A crash discards the overlay *and* every buffered line
 *    whose drain had not completed by the crash tick, exactly like
 *    powering off a machine whose caches and write buffers held
 *    unflushed NVM lines.  A seeded torn-store mode persists only half
 *    of one in-flight 64-bit word, modelling a store torn mid-drain.
 *    This is what gives the persistence experiments (and their tests)
 *    real teeth.
 */

#ifndef KINDLE_MEM_BACKING_STORE_HH
#define KINDLE_MEM_BACKING_STORE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <memory_resource>
#include <unordered_map>
#include <vector>

#include "base/addr_range.hh"
#include "base/intmath.hh"
#include "base/logging.hh"
#include "base/types.hh"

namespace kindle::mem
{

class NvmMediaModel;

/** The bytes of one cache line. */
using Line = std::array<std::uint8_t, lineSize>;

/**
 * A sparse, line-granular byte store over an address range: a
 * two-level radix table whose leaves of leafFrames FrameLines
 * headers are allocated on first write.  A frame keeps only the
 * 64-byte lines that ever received a non-zero byte; every other line
 * reads as zero.
 */
class BackingStore
{
  public:
    explicit BackingStore(AddrRange range);

    const AddrRange &range() const { return _range; }

    /** Read @p size bytes at @p addr into @p dst (zero-fill holes). */
    void read(Addr addr, void *dst, std::uint64_t size) const;

    /**
     * Write @p size bytes from @p src at @p addr.  An all-zero chunk
     * that lands on an unheld line is skipped: that line already reads
     * as zero.
     */
    void write(Addr addr, const void *src, std::uint64_t size);

    /** Typed convenience read. */
    template <typename T>
    T
    readT(Addr addr) const
    {
        T v{};
        read(addr, &v, sizeof(T));
        return v;
    }

    /** Typed convenience write. */
    template <typename T>
    void
    writeT(Addr addr, const T &v)
    {
        write(addr, &v, sizeof(T));
    }

    /** Drop every line (volatile contents lost). */
    void clear();

    /** Number of lines currently held. */
    std::size_t linesHeld() const { return held; }

    /** Frames covered by one radix leaf. */
    static constexpr std::uint64_t leafFrames = 512;

  private:
    /**
     * The held lines of one frame.  Bit i of @c mask means line i is
     * held; the held lines sit in line order, so line i is at
     * lines[popcount(mask & (bit - 1))].  The array's capacity is
     * bit_ceil(popcount(mask)): it doubles when the count reaches a
     * power of two, so a dense frame costs one 4 KiB array.
     */
    struct FrameLines
    {
        std::uint64_t mask = 0;
        std::unique_ptr<Line[]> lines;
    };
    static_assert(sizeof(FrameLines) == 16);

    using Leaf = std::array<FrameLines, leafFrames>;

    /** Frame number of @p addr within the range. */
    std::uint64_t frameIndex(Addr addr) const;

    FrameLines *frameFor(Addr addr, bool allocate);
    const FrameLines *frameFor(Addr addr) const;

    /** Hold the unheld line @p bit of @p f, zeroed; return its bytes. */
    std::uint8_t *insertLine(FrameLines &f, std::uint64_t bit);

    AddrRange _range;
    std::vector<std::unique_ptr<Leaf>> leaves;
    std::size_t held = 0;
};

/** What a power failure does to writes still in the controller. */
struct PowerLossModel
{
    /** Tear one lost 64-bit store (persist only its lower half). */
    bool tornStore = false;
    /** Seed for the deterministic torn-victim choice. */
    std::uint64_t seed = 1;
};

/** Accounting of a power-loss event over the controller buffer. */
struct CrashOutcome
{
    /** Buffered lines whose device drain beat the crash (survive). */
    std::uint64_t linesDrained = 0;
    /** Buffered lines still draining at the crash (lost). */
    std::uint64_t linesLost = 0;
    /** 64-bit stores persisted half-way (torn mode). */
    std::uint64_t tornWords = 0;
};

/**
 * NVM backing store with cache-residency-aware durability.
 *
 * writeVolatile() models a CPU store that is still sitting in some
 * cache; commitLine(addr, now, drain_at) models the line entering the
 * controller's posted-write buffer with a known drain-completion tick;
 * commitLineImmediate() models a device-confirmed flush (a clwb of a
 * line that was already clean everywhere).  writeDurable() bypasses
 * the overlay for transfers that are architecturally uncached (e.g. a
 * flushed page copy performed by the OS).
 */
class DurableStore
{
  public:
    explicit DurableStore(AddrRange range);

    const AddrRange &range() const { return _range; }

    /**
     * Attach a media reliability model.  Every byte that reaches
     * durable media is charged as a line write (wear + drift), and
     * every byte read back from media passes through ECC decode.
     * Overlay and controller-buffer accesses are untouched — those
     * bytes live in SRAM/DRAM, not in NVM cells.
     */
    void attachMedia(NvmMediaModel *m) { media = m; }

    /** Store into the volatile overlay (cacheline-tracked). */
    void writeVolatile(Addr addr, const void *src, std::uint64_t size);

    /** Store straight to durable media. */
    void writeDurable(Addr addr, const void *src, std::uint64_t size);

    /** Read the latest value (overlay wins over durable). */
    void read(Addr addr, void *dst, std::uint64_t size) const;

    /** Read only what would survive a crash right now. */
    void readDurable(Addr addr, void *dst, std::uint64_t size) const;

    /**
     * A writeback/clwb of this line was accepted by the controller at
     * @p now; the device drain completes at @p drain_at.  The line
     * leaves the volatile overlay but only survives a crash whose tick
     * is >= @p drain_at (or an intervening drainTo / fence).  A copy
     * of the line still buffered from an earlier writeback keeps its
     * own drain tick; the new copy lands after it.
     */
    void commitLine(Addr line_addr, Tick now, Tick drain_at);

    /** Make one cache line durable immediately (device confirmed). */
    void commitLineImmediate(Addr line_addr);

    /**
     * Retire every buffered copy whose drain completed by @p now, line
     * by line in address order (each line's copies oldest first).
     */
    void drainTo(Tick now);

    /**
     * Power loss at @p now: overlay lines are gone; buffered lines
     * drained by @p now survive, the rest are lost — except that torn
     * mode half-persists one lost 64-bit store (seeded, deterministic).
     */
    CrashOutcome crash(Tick now, const PowerLossModel &model);

    /** Typed helpers. */
    template <typename T>
    T
    readT(Addr addr) const
    {
        T v{};
        read(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    writeVolatileT(Addr addr, const T &v)
    {
        writeVolatile(addr, &v, sizeof(T));
    }

    template <typename T>
    void
    writeDurableT(Addr addr, const T &v)
    {
        writeDurable(addr, &v, sizeof(T));
    }

    /** Lines currently volatile (not yet crash-safe). */
    std::size_t pendingLines() const { return pending.size(); }

    /** Distinct lines sitting in the controller's posted-write
     *  buffer. */
    std::size_t inflightLines() const;

  private:
    /**
     * One copy of a line in the controller buffer.  The buffer keeps
     * its copies in line-address order, each line's copies oldest
     * first: they reach media in that order, each at its own tick, and
     * no copy's tick is earlier than an older copy's of its line.
     */
    struct Copy
    {
        Addr line = 0;
        Tick drainAt = 0;
        Line data{};
    };

    /** Write one buffered copy of @p line_addr to media. */
    void persistLine(Addr line_addr, const Line &data);

    /** The first buffered copy after @p line_addr's copies. */
    std::vector<Copy>::iterator
    afterCopies(Addr line_addr)
    {
        return std::upper_bound(
            inflight.begin(), inflight.end(), line_addr,
            [](Addr a, const Copy &c) { return a < c.line; });
    }

    /**
     * The newest buffered copy of @p line_addr, or null.  The buffer
     * holds a few lines at most and is empty on almost every access,
     * so it is searched only when it holds something.
     */
    Copy *
    newestCopy(Addr line_addr)
    {
        if (inflight.empty())
            return nullptr;
        const auto it = afterCopies(line_addr);
        return it != inflight.begin() && std::prev(it)->line == line_addr
                   ? &*std::prev(it)
                   : nullptr;
    }

    const Copy *
    newestCopy(Addr line_addr) const
    {
        return const_cast<DurableStore *>(this)->newestCopy(line_addr);
    }

    /**
     * Which lines of one frame have a pending copy: bit i stands for
     * line i.  A set bit mirrors a key of the overlay, so the
     * per-access paths probe the overlay only for a line that is
     * there.
     */
    using MaskLeaf = std::array<std::uint64_t, BackingStore::leafFrames>;

    /** Pending mask of @p line_addr's frame (0 if never touched). */
    std::uint64_t
    pendingMask(Addr line_addr) const
    {
        // An address below the range wraps to a huge frame number, so
        // one bound check covers both ends; BackingStore then panics.
        const std::uint64_t fn = (line_addr - _range.start()) >> pageShift;
        const std::uint64_t leaf = fn / BackingStore::leafFrames;
        if (leaf >= maskLeaves.size() || !maskLeaves[leaf])
            return 0;
        return (*maskLeaves[leaf])[fn % BackingStore::leafFrames];
    }

    /** Pending mask of @p line_addr's frame, allocating its leaf. */
    std::uint64_t &pendingMaskAt(Addr line_addr);

    /** @p line_addr's bit within its frame's mask. */
    std::uint64_t
    lineBit(Addr line_addr) const
    {
        return std::uint64_t{1}
               << (((line_addr - _range.start()) >> lineShift) %
                   linesPerPage);
    }

    /** The overlay entry that a set pending bit stands for. */
    template <typename Map>
    static auto
    held(Map &map, Addr line_addr)
    {
        const auto it = map.find(line_addr);
        kindle_assert(it != map.end(),
                      "line mask set for {} but the line is not held",
                      line_addr);
        return it;
    }

    BackingStore durable;
    AddrRange _range;
    NvmMediaModel *media = nullptr;
    /**
     * The overlay's nodes come from a pool, so a line that leaves it
     * hands its node to the next line to arrive (held by pointer so a
     * moved store keeps it).  Its iteration order never reaches
     * simulated state: crash() drops it whole.
     */
    std::unique_ptr<std::pmr::unsynchronized_pool_resource> pendingPool =
        std::make_unique<std::pmr::unsynchronized_pool_resource>();
    std::pmr::unordered_map<Addr, Line> pending{pendingPool.get()};
    /** The controller buffer, in Copy's order; drainTo() and crash()
     *  walk it front to back, which is the order of the media model's
     *  seeded wear draws. */
    std::vector<Copy> inflight;
    /** No buffered copy drains before this tick. */
    Tick nextDrain = maxTick;
    std::vector<std::unique_ptr<MaskLeaf>> maskLeaves;
};

} // namespace kindle::mem

#endif // KINDLE_MEM_BACKING_STORE_HH
