#include "hscc/mapping_table.hh"

#include "base/logging.hh"

namespace kindle::hscc
{

MappingTable::MappingTable(unsigned slots_arg, os::KernelMem &kmem_arg,
                           os::FrameAllocator &dram_alloc)
    : kmem(kmem_arg),
      slots(slots_arg),
      statGroup("hsccMapTable", "NVM-to-DRAM mapping lookup table"),
      lookups(statGroup.addScalar("lookups", "table lookups")),
      updates(statGroup.addScalar("updates", "table updates"))
{
    kindle_assert(slots > 0, "empty mapping table");
    // Contiguous frames for the table itself.
    tableBase = dram_alloc.alloc();
    for (std::uint64_t i = 1; i < framesFor(slots); ++i) {
        const Addr f = dram_alloc.alloc();
        kindle_assert(f == tableBase + i * pageSize,
                      "mapping table frames not contiguous");
    }
}

Addr
MappingTable::slotAddr(unsigned index) const
{
    kindle_assert(index < slots, "mapping-table slot out of range");
    return tableBase + index * sizeof(MapEntry);
}

void
MappingTable::set(unsigned index, Addr nvm_frame, Addr dram_frame)
{
    ++updates;
    const MapEntry e{nvm_frame, dram_frame};
    kmem.writeBuf(slotAddr(index), &e, sizeof(e));
}

void
MappingTable::clear(unsigned index)
{
    ++updates;
    MapEntry e{};
    kmem.readBuf(slotAddr(index), &e, sizeof(e));
    const MapEntry zero{};
    kmem.writeBuf(slotAddr(index), &zero, sizeof(zero));
}

Addr
MappingTable::nvmAt(unsigned index)
{
    ++lookups;
    if (index >= slots)
        return invalidAddr;
    const MapEntry seen = peek(index);
    if (seen.nvmFrame == 0 && seen.dramFrame == 0)
        return invalidAddr;
    MapEntry e{};
    kmem.readBuf(slotAddr(index), &e, sizeof(e));
    return e.nvmFrame;
}

MapEntry
MappingTable::peek(unsigned index)
{
    MapEntry e{};
    kmem.mem().readData(slotAddr(index), &e, sizeof(e));
    return e;
}

} // namespace kindle::hscc
