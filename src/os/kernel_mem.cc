#include "os/kernel_mem.hh"

#include <algorithm>

#include "base/intmath.hh"
#include "base/logging.hh"
#include "fault/fault.hh"

namespace kindle::os
{

void
KernelMem::writeBuf(Addr paddr, const void *src, std::uint64_t size)
{
    memory.writeData(paddr, src, size);
    sim.bump(caches.access(mem::MemCmd::write, paddr, size, sim.now())
                 .latency);
}

void
KernelMem::readBuf(Addr paddr, void *dst, std::uint64_t size)
{
    sim.bump(caches.access(mem::MemCmd::read, paddr, size, sim.now())
                 .latency);
    memory.readData(paddr, dst, size);
}

void
KernelMem::writeBufDurable(Addr paddr, const void *src,
                           std::uint64_t size,
                           std::optional<fault::SiteId> pre_fence_site)
{
    memory.writeData(paddr, src, size);
    sim.bump(caches.access(mem::MemCmd::write, paddr, size, sim.now())
                 .latency);
    const Addr first = roundDown(paddr, lineSize);
    const Addr last = roundDown(paddr + size - 1, lineSize);
    for (Addr line = first; line <= last; line += lineSize)
        clwb(line);
    if (pre_fence_site)
        fault::crashSite(*pre_fence_site);
    sfence();
}

void
KernelMem::copyPage(Addr dst, Addr src, bool flush_src)
{
    if (flush_src)
        sim.bump(caches.clwbPage(src, sim.now()));

    // Timing: streaming read of the source + streaming write of the
    // destination.
    sim.bump(memory.submit({mem::MemCmd::bulkRead, src, pageSize},
                           sim.now()));
    sim.bump(memory.submit({mem::MemCmd::bulkWrite, dst, pageSize},
                           sim.now()));

    // Functional: move the bytes; a copy landing in NVM via the bulk
    // path is a device-level transfer and therefore durable.
    std::array<std::uint8_t, pageSize> buf;
    memory.readData(src, buf.data(), pageSize);
    if (memory.typeOf(dst) == mem::MemType::nvm)
        memory.writeDataDurable(dst, buf.data(), pageSize);
    else
        memory.writeData(dst, buf.data(), pageSize);
}

void
KernelMem::zeroDurable(Addr paddr, std::uint64_t size)
{
    sim.bump(memory.submit({mem::MemCmd::bulkWrite, paddr, size},
                           sim.now()));
    Addr cursor = paddr;
    std::uint64_t remaining = size;
    while (remaining > 0) {
        const std::uint64_t chunk =
            std::min<std::uint64_t>(remaining, pageSize);
        memory.writeDataDurable(cursor, zeroPage.data(), chunk);
        cursor += chunk;
        remaining -= chunk;
    }
}

} // namespace kindle::os
