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

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
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

    /** Retire every buffered line whose drain completed by @p now. */
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

    /** Lines sitting in the controller's posted-write buffer. */
    std::size_t inflightLines() const { return inflight.size(); }

  private:
    /** One copy of a line in the controller buffer. */
    struct Copy
    {
        Line data{};
        Tick drainAt = 0;
    };

    /**
     * A buffered line draining toward the device: its newest copy,
     * plus any older copies still in the buffer (oldest first).  The
     * copies reach media in commit order, each at its own tick, and no
     * copy's tick is earlier than an older one's.
     */
    struct Inflight : Copy
    {
        std::vector<Copy> older;
    };

    /** Write one buffered copy of @p line_addr to media. */
    void persistLine(Addr line_addr, const Line &data);

    /** Retire @p entry's older copies whose drain completed by @p now. */
    void drainOlder(Addr line_addr, Inflight &entry, Tick now);

    /**
     * Which lines of one frame have a pending / in-flight copy: bit i
     * stands for line i.  A set bit mirrors a key in the matching map,
     * so the per-access paths probe a map only for a line that is in
     * it.
     */
    struct LineMasks
    {
        std::uint64_t pending = 0;
        std::uint64_t inflight = 0;
    };

    /** The masks of BackingStore::leafFrames consecutive frames. */
    using MaskLeaf = std::array<LineMasks, BackingStore::leafFrames>;

    /** Masks of @p line_addr's frame, or null if never touched. */
    const LineMasks *
    masksOf(Addr line_addr) const
    {
        // An address below the range wraps to a huge frame number, so
        // one bound check covers both ends; BackingStore then panics.
        const std::uint64_t fn = (line_addr - _range.start()) >> pageShift;
        const std::uint64_t leaf = fn / BackingStore::leafFrames;
        if (leaf >= maskLeaves.size() || !maskLeaves[leaf])
            return nullptr;
        return &(*maskLeaves[leaf])[fn % BackingStore::leafFrames];
    }

    /** Masks of @p line_addr's frame, allocating its leaf. */
    LineMasks &masksAt(Addr line_addr);

    /** @p line_addr's bit within its frame's masks. */
    std::uint64_t
    lineBit(Addr line_addr) const
    {
        return std::uint64_t{1}
               << (((line_addr - _range.start()) >> lineShift) %
                   linesPerPage);
    }

    /** The entry of @p map that a set mask bit stands for. */
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
     * The masks only spare lookups: every insert and erase of these
     * maps still happens.  drainTo() and crash() retire `inflight` in
     * its own iteration order, and that order is the order of the
     * media model's seeded wear draws.
     */
    std::unordered_map<Addr, Line> pending;
    std::unordered_map<Addr, Inflight> inflight;
    std::vector<std::unique_ptr<MaskLeaf>> maskLeaves;
};

} // namespace kindle::mem

#endif // KINDLE_MEM_BACKING_STORE_HH
