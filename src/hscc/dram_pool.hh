/**
 * @file
 * The HSCC DRAM cache-page pool.
 *
 * HSCC manages a fixed pool of DRAM pages (512 in the paper) as a
 * cache over NVM, categorized into free, clean and dirty lists that
 * are refreshed at the start of each migration interval.  Selecting a
 * destination page prefers free, then clean (drop the old mapping),
 * then dirty (copy the old contents back to NVM first) — the cost
 * split the paper's Table VI quantifies.
 */

#ifndef KINDLE_HSCC_DRAM_POOL_HH
#define KINDLE_HSCC_DRAM_POOL_HH

#include <array>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "base/stats.hh"
#include "os/frame_alloc.hh"

namespace kindle::hscc
{

/** Classification of one pool page. */
enum class PoolState : std::uint8_t
{
    free,
    clean,
    dirty,
};

/** One pool page and its current occupancy. */
struct PoolEntry
{
    Addr dramFrame = invalidAddr;
    Addr nvmHome = invalidAddr;  ///< NVM page cached here (if any)
    PoolState state = PoolState::free;
    /** Bound during the current migration interval: such pages are
     *  displaced only as a last resort (they are the hottest). */
    bool fresh = false;
};

/** What page selection found. */
struct Selection
{
    unsigned index = 0;          ///< pool slot chosen
    Addr dramFrame = invalidAddr;
    Addr displacedNvm = invalidAddr;  ///< previous occupant (if any)
    bool needsCopyBack = false;  ///< displaced page was dirty
};

/** The pool. */
class DramPool
{
  public:
    /**
     * @param pages Pool size; frames are drawn from @p dram_alloc.
     */
    DramPool(unsigned pages, os::FrameAllocator &dram_alloc);

    unsigned size() const { return static_cast<unsigned>(entries.size()); }

    /** Slots currently free / clean / dirty. */
    unsigned freeCount() const;
    unsigned cleanCount() const;
    unsigned dirtyCount() const;

    /**
     * Pick a destination page: free, else clean, else dirty.
     * @return the selection, or std::nullopt when the pool is empty
     *         (cannot happen with a non-zero pool).
     */
    Selection select();

    /** Bind @p nvm_home to the selected slot (post-copy). */
    void bind(unsigned index, Addr nvm_home);

    /** Release the slot caching @p nvm_home (page unmapped). */
    void release(Addr nvm_home);

    /** A store hit the DRAM copy of @p nvm_home: mark dirty. */
    void markDirty(Addr nvm_home);

    /** Interval start: re-derive the three lists. */
    void refreshLists();

    /** Pool entry caching @p nvm_home, or nullptr. */
    const PoolEntry *entryFor(Addr nvm_home) const;

    const std::vector<PoolEntry> &allEntries() const { return entries; }

    statistics::StatGroup &stats() { return statGroup; }

  private:
    std::vector<PoolEntry> entries;
    std::unordered_map<Addr, unsigned> byNvmHome;
    std::deque<unsigned> freeList;
    std::deque<unsigned> cleanList;
    std::deque<unsigned> dirtyList;
    std::deque<unsigned> freshList;  ///< bound this interval

    /** Slots per PoolState, kept exact at every state change. */
    std::array<unsigned, 3> slotsIn{};

    /** Move @p e to @p state, updating the counts and gauges. */
    void setState(PoolEntry &e, PoolState state);

    statistics::StatGroup statGroup;
    statistics::Scalar &selFree;
    statistics::Scalar &selClean;
    statistics::Scalar &selDirty;
    /** Level stats (gauges, not counters): current slot occupancy. */
    statistics::Gauge &freePages;
    statistics::Gauge &cleanPages;
    statistics::Gauge &dirtyPages;
};

} // namespace kindle::hscc

#endif // KINDLE_HSCC_DRAM_POOL_HH
