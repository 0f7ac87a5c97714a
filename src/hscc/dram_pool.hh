/**
 * @file
 * The HSCC DRAM cache-page pool.
 *
 * HSCC manages a fixed pool of DRAM pages (512 in the paper) as a
 * cache over NVM, categorized into free, clean and dirty lists that
 * are refreshed at the start of each migration interval.  Selecting a
 * destination page prefers free, then clean (drop the old mapping),
 * then dirty (copy the old contents back to NVM first) — the cost
 * split the paper's Table VI quantifies.  Each slot's PoolEntry is
 * the one host record of the page it caches.
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

/** Where a cached page is mapped (what a displacement reverts). */
struct PageMapping
{
    Pid pid = 0;
    Addr vaddr = invalidAddr;
    Addr pteAddr = invalidAddr;
};

/** One pool page and its current occupancy. */
struct PoolEntry
{
    Addr dramFrame = invalidAddr;
    Addr nvmHome = invalidAddr;  ///< NVM page cached here (if any)
    PageMapping mapping;         ///< where nvmHome is mapped
    PoolState state = PoolState::free;
};

/** What page selection found. */
struct Selection
{
    unsigned index = 0;          ///< pool slot chosen
    Addr dramFrame = invalidAddr;
    Addr displacedNvm = invalidAddr;  ///< previous occupant (if any)
    PageMapping displaced;       ///< where displacedNvm was mapped
    bool needsCopyBack = false;  ///< displaced page was dirty
};

/** The pool. */
class DramPool
{
  public:
    /** @param pages Pool size; @p dram_alloc must have that many
     *               frames free. */
    DramPool(unsigned pages, os::FrameAllocator &dram_alloc);

    unsigned size() const { return static_cast<unsigned>(entries.size()); }

    /** Slots currently in @p state. */
    unsigned count(PoolState s) const { return slotsIn[unsigned(s)]; }

    /** Pick a destination page: free, else clean, else dirty.  The
     *  slot comes back free, its old occupant in the selection. */
    Selection select();

    /** Bind @p nvm_home, mapped @p at, to the selected slot. */
    void bind(unsigned index, Addr nvm_home, const PageMapping &at);

    /** Free slot @p index (its page was unmapped); a free slot is
     *  left alone. */
    void release(unsigned index);

    /** A store hit slot @p index's DRAM copy: a clean slot turns
     *  dirty, a free one is left alone. */
    void markDirty(unsigned index);

    /** Interval start: re-derive the three lists. */
    void refreshLists();

    /** Slot owning @p dram_frame, or size() for a frame outside the
     *  pool. */
    unsigned slotOf(Addr dram_frame) const;

    const std::vector<PoolEntry> &allEntries() const { return entries; }

    statistics::StatGroup &stats() { return statGroup; }

  private:
    std::vector<PoolEntry> entries;
    /** Pool frames come off the allocator's LIFO free stack, so they
     *  are not in address order: slotOf() needs an index. */
    std::unordered_map<Addr, unsigned> slotByFrame;
    std::deque<unsigned> freeList;
    std::deque<unsigned> cleanList;
    std::deque<unsigned> dirtyList;
    /** Bound this interval: displaced only as a last resort (they
     *  are the hottest). */
    std::deque<unsigned> freshList;

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
