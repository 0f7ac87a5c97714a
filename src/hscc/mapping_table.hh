/**
 * @file
 * The HSCC NVM↔DRAM mapping lookup table.
 *
 * The original HSCC widens PTEs to 96 bits to hold both page numbers,
 * which truncates last-level-table fanout (341 entries per 4 KiB page,
 * leaving 171 pages of every 2 MiB region unmappable).  Kindle instead
 * keeps 64-bit PTEs and maintains the NVM↔DRAM association in this
 * separate table, one entry per DRAM pool slot (paper §III-C).
 * Entries live in kernel DRAM; each update and each read of a set
 * entry is charged one memory access.
 */

#ifndef KINDLE_HSCC_MAPPING_TABLE_HH
#define KINDLE_HSCC_MAPPING_TABLE_HH

#include <cstdint>

#include "base/intmath.hh"
#include "base/stats.hh"
#include "os/frame_alloc.hh"
#include "os/kernel_mem.hh"

namespace kindle::hscc
{

/** One 16-byte table entry; all zero when the slot is empty. */
struct MapEntry
{
    std::uint64_t nvmFrame = 0;
    std::uint64_t dramFrame = 0;
};

static_assert(sizeof(MapEntry) == 16);

/** The table. */
class MappingTable
{
  public:
    /**
     * @param slots       Capacity (= DRAM pool size).
     * @param kmem        Kernel memory gateway.
     * @param dram_alloc  Supplies the frames holding the table.
     */
    MappingTable(unsigned slots, os::KernelMem &kmem,
                 os::FrameAllocator &dram_alloc);

    /** DRAM frames a table of @p slots entries occupies. */
    static std::uint64_t
    framesFor(unsigned slots)
    {
        return divCeil(std::uint64_t(slots) * sizeof(MapEntry), pageSize);
    }

    /** Record nvm→dram at pool slot @p index (timed write). */
    void set(unsigned index, Addr nvm_frame, Addr dram_frame);

    /** Clear slot @p index (timed read, then timed write). */
    void clear(unsigned index);

    /**
     * The NVM page recorded at slot @p index (timed read).  An empty
     * slot (never set, or cleared) and an @p index past the table are
     * misses: the hardware-indexed lookup answers invalidAddr without
     * a memory access.  Every call counts as a lookup.
     */
    Addr nvmAt(unsigned index);

    /** Slot @p index's entry, read without timing (inspection). */
    MapEntry peek(unsigned index);

    statistics::StatGroup &stats() { return statGroup; }

  private:
    Addr slotAddr(unsigned index) const;

    os::KernelMem &kmem;
    unsigned slots;
    Addr tableBase;

    statistics::StatGroup statGroup;
    statistics::Scalar &lookups;
    statistics::Scalar &updates;
};

} // namespace kindle::hscc

#endif // KINDLE_HSCC_MAPPING_TABLE_HH
