/**
 * @file
 * MESI-lite directory coherence for the shared LLC.
 *
 * The multi-core hierarchy keeps per-core private L1/L2 caches in
 * front of one shared LLC.  This directory tracks, per cache line,
 * which cores hold private copies and in what MESI state, and tells
 * the hierarchy which invalidation / writeback messages an access
 * must generate.  The protocol is "lite" in two ways that suit
 * Kindle's tag-only caches:
 *
 *  - Transitions are computed synchronously at the access point; the
 *    resulting messages are delivered immediately (the caches carry no
 *    data payloads, so an in-flight race would be a timing artifact,
 *    not a correctness bug) while their latency is charged to the
 *    requesting core.
 *
 *  - The directory is conservative: a silent eviction from a private
 *    cache leaves the sharer bit set, costing at worst a spurious
 *    invalidation message later.  Entries therefore outlive their
 *    cached copies, and the directory tracks every line the cores
 *    have touched since the last reset, not just what the LLC holds.
 *    Its table grows with that footprint, so each tracked line costs
 *    one 8-byte slot: a 32-bit key holding the line index and the
 *    state, and the 32-bit sharer mask.  The owner of an E/M line is
 *    its lone sharer bit, so no slot stores it.  A 30-bit line index
 *    covers a 64 GiB physical space.
 *
 * The state machine itself is a pure function (apply()) so the unit
 * tests can enumerate every transition without building caches.
 */

#ifndef KINDLE_CACHE_COHERENCE_HH
#define KINDLE_CACHE_COHERENCE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/intmath.hh"
#include "base/stats.hh"
#include "base/types.hh"

namespace kindle::cache
{

/** Stable MESI states a line's private copies can be in. */
enum class MesiState : std::uint8_t
{
    invalid,   ///< no private copy anywhere
    shared,    ///< >=1 clean copies, memory/LLC up to date
    exclusive, ///< exactly one clean copy
    modified,  ///< exactly one dirty copy
};

const char *mesiStateName(MesiState s);

/** Directory bookkeeping for one line. */
struct DirEntry
{
    MesiState state = MesiState::invalid;
    std::uint32_t sharers = 0; ///< bitmask of cores holding a copy

    /**
     * The core holding the only copy; meaningful in exclusive and
     * modified, where that copy is always the lone sharer bit.
     */
    CpuId
    owner() const
    {
        return static_cast<CpuId>(countTrailingZeros(sharers));
    }
};

/**
 * The coherence messages one access requires, as core bitmasks.
 * Writebacks are performed before invalidations (a dirty remote copy
 * displaced by a write is pushed down, then dropped).
 */
struct CoherenceActions
{
    std::uint32_t invalidate = 0;    ///< drop private copies here
    std::uint32_t writebackFrom = 0; ///< push dirty copy down, keep it
    bool upgrade = false;            ///< S->M upgrade by a sharer
};

/**
 * Per-line MESI-lite directory over the private caches: an
 * open-addressed, linear-probing table keyed by line index, with
 * backward-shift deletion and doubling at half load.
 */
class MesiDirectory
{
    /** Low key bits holding a tracked line's state (S, E or M). */
    static constexpr unsigned stateBits = 2;
    static constexpr std::uint32_t stateMask = (1u << stateBits) - 1;

    /**
     * One table slot: key == line index << stateBits | state, and
     * key 0 marks an empty slot (a tracked line is never invalid).
     */
    struct Slot
    {
        std::uint32_t key = 0;
        std::uint32_t sharers = 0;
    };

  public:
    /** Host bytes per table slot. */
    static constexpr std::size_t slotBytes = sizeof(Slot);

    /** Line addresses the directory can track lie below this. */
    static constexpr Addr addrLimit = Addr{1}
                                      << (32 - stateBits + lineShift);

    explicit MesiDirectory(unsigned num_cores);

    /**
     * Pure MESI-lite transition function: mutate @p entry for an
     * access by @p requester and return the messages it generates.
     * Exposed statically so tests can drive every transition.
     */
    static CoherenceActions apply(DirEntry &entry, CpuId requester,
                                  bool is_write);

    /** Record an access and return the required messages (with stats). */
    CoherenceActions access(Addr line_addr, CpuId requester,
                            bool is_write);

    /**
     * A clwb made the dirty copy clean everywhere: demote modified to
     * exclusive (the owner keeps a clean resident copy).
     */
    void cleanLine(Addr line_addr);

    /** A clflush (or full invalidation) removed every private copy. */
    void dropLine(Addr line_addr);

    /** Crash / flushAll: no private copy survives anywhere. */
    void reset();

    /**
     * Hotplug offlining: @p cpu's private caches have been flushed and
     * invalidated, so drop its sharer/owner claims from every line.
     * Lines it owned in E/M (and lines left with no sharers) become
     * untracked — the flushed copy in the LLC is now authoritative.
     */
    void offlineCore(CpuId cpu);

    /** Directory view of @p line_addr (invalid entry if untracked). */
    DirEntry lookup(Addr line_addr) const;

    /** Lines currently tracked. */
    std::size_t trackedLines() const { return used; }

    /** Slots in the table (a power of two; grows, never shrinks). */
    std::size_t capacity() const { return slots.size(); }

    statistics::StatGroup &stats() { return statGroup; }

  private:
    /** Line index of a slot's key. */
    static Addr lineOf(std::uint32_t key) { return key >> stateBits; }

    static MesiState
    stateOf(std::uint32_t key)
    {
        return static_cast<MesiState>(key & stateMask);
    }

    /** Preferred slot of line index @p line. */
    std::size_t
    home(Addr line) const
    {
        return static_cast<std::size_t>(
            (line * 0x9e3779b97f4a7c15ULL) >> hashShift);
    }

    /** Slot of line index @p line, or the empty slot ending its chain. */
    std::size_t probe(Addr line) const;

    /** Empty slot @p hole, pulling later chain members back into it. */
    void erase(std::size_t hole);

    /** Double the table and reinsert every entry. */
    void grow();

    unsigned numCores;
    std::vector<Slot> slots;
    unsigned hashShift;  ///< 64 - log2(slots.size())
    std::size_t used = 0;

    statistics::StatGroup statGroup;
    statistics::Scalar &invalidationsSent;
    statistics::Scalar &writebacksForced;
    statistics::Scalar &upgrades;
    statistics::Scalar &sharedFills;
};

} // namespace kindle::cache

#endif // KINDLE_CACHE_COHERENCE_HH
