/**
 * @file
 * Memory command vocabulary shared by the CPU, caches and controllers.
 */

#ifndef KINDLE_MEM_PACKET_HH
#define KINDLE_MEM_PACKET_HH

#include "base/types.hh"

namespace kindle::mem
{

/** The two memory technologies in the hybrid system. */
enum class MemType
{
    dram,
    nvm,
};

/** Commands travelling down the memory hierarchy. */
enum class MemCmd
{
    read,       ///< demand read of up to one cache line
    write,      ///< demand write of up to one cache line
    writeback,  ///< dirty line eviction from the LLC
    bulkRead,   ///< multi-line streaming read (page copies, log scans)
    bulkWrite,  ///< multi-line streaming write (page copies, log appends)
};

/** True for commands that deposit data into the device. */
constexpr bool
isWriteCmd(MemCmd cmd)
{
    return cmd == MemCmd::write || cmd == MemCmd::writeback ||
           cmd == MemCmd::bulkWrite;
}

/** A request as seen by a memory controller (always physical). */
struct MemRequest
{
    MemCmd cmd;
    Addr paddr;
    std::uint64_t size;
};

} // namespace kindle::mem

#endif // KINDLE_MEM_PACKET_HH
