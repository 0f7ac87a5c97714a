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
 *    Its table grows with that footprint.
 *
 * The state machine itself is a pure function (apply()) so the unit
 * tests can enumerate every transition without building caches.
 */

#ifndef KINDLE_CACHE_COHERENCE_HH
#define KINDLE_CACHE_COHERENCE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

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

/** Directory bookkeeping for one line (8 bytes). */
struct DirEntry
{
    MesiState state = MesiState::invalid;
    std::uint8_t owner = 0;    ///< meaningful in exclusive/modified
    std::uint32_t sharers = 0; ///< bitmask of cores holding a copy
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
 * open-addressed, linear-probing table keyed by line address, with
 * backward-shift deletion and doubling at half load.
 */
class MesiDirectory
{
  public:
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
    /** Key of an empty slot; no line address is unaligned like this. */
    static constexpr Addr emptyKey = ~Addr{0};

    struct Slot
    {
        Addr line = emptyKey;
        DirEntry entry;
    };

    /** Preferred slot of @p line_addr. */
    std::size_t
    home(Addr line_addr) const
    {
        return static_cast<std::size_t>(
            ((line_addr >> lineShift) * 0x9e3779b97f4a7c15ULL) >>
            hashShift);
    }

    /** Slot holding @p line_addr, or the empty slot ending its chain. */
    std::size_t probe(Addr line_addr) const;

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
