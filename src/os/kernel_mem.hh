/**
 * @file
 * Kernel-mode memory access helpers.
 *
 * OS code manipulates simulated physical memory constantly — page-table
 * entries, allocator bitmaps, the redo log, saved-state areas.  Each
 * helper performs the functional data movement *and* charges the
 * simulation clock for the access, so kernel work is as observable in
 * end-to-end execution time as user work (the property the paper's
 * HSCC study exploits: "user-level simulators miss OS overheads").
 */

#ifndef KINDLE_OS_KERNEL_MEM_HH
#define KINDLE_OS_KERNEL_MEM_HH

#include <array>
#include <cstdint>
#include <optional>

#include "base/intmath.hh"
#include "cache/hierarchy.hh"
#include "fault/fault.hh"
#include "mem/hybrid_memory.hh"
#include "sim/simulation.hh"

namespace kindle::os
{

/** One page of zeros: the source of every zeroing write. */
inline constexpr std::array<std::uint8_t, pageSize> zeroPage{};

/** Timing+functional gateway for kernel accesses. */
class KernelMem
{
  public:
    KernelMem(sim::Simulation &sim, mem::HybridMemory &memory,
              cache::Hierarchy &caches)
        : sim(sim), memory(memory), caches(caches)
    {}

    /** @name Cached scalar accesses (normal kernel data). */
    /// @{
    std::uint64_t
    read64(Addr paddr)
    {
        sim.bump(caches.access(mem::MemCmd::read, paddr, 8, sim.now())
                     .latency);
        return memory.readT<std::uint64_t>(paddr);
    }

    void
    write64(Addr paddr, std::uint64_t v)
    {
        sim.bump(caches.access(mem::MemCmd::write, paddr, 8, sim.now())
                     .latency);
        memory.writeT<std::uint64_t>(paddr, v);
    }
    /// @}

    /** @name Uncached scalar accesses (non-temporal kernel data). */
    /// @{
    /**
     * An uncached line read whose value the kernel does not use (a
     * scan or an inspection): the controller read is charged, and the
     * bytes are fetched only when a media model is armed, whose ECC
     * decode counts every read that reaches the cells.
     */
    void
    chargeUncachedRead(Addr paddr)
    {
        sim.bump(memory.submit({mem::MemCmd::read,
                                roundDown(paddr, lineSize), lineSize},
                               sim.now()));
        if (memory.media())
            memory.readT<std::uint64_t>(paddr);
    }

    void
    write64Uncached(Addr paddr, std::uint64_t v)
    {
        memory.writeT<std::uint64_t>(paddr, v);
        sim.bump(memory.submit({mem::MemCmd::write,
                                roundDown(paddr, lineSize), lineSize},
                               sim.now()));
    }
    /// @}

    /** Raw buffer write, cached, timing charged per line. */
    void writeBuf(Addr paddr, const void *src, std::uint64_t size);

    /** Raw buffer read, cached, timing charged per line. */
    void readBuf(Addr paddr, void *dst, std::uint64_t size);

    /**
     * Durable buffer write: write + clwb each line + one fence.
     * The data is guaranteed crash-safe when the call returns.  When
     * @p pre_fence_site names a crash site, its probe fires between
     * the clwbs and the fence — the window where the lines sit in the
     * controller's write buffer and a power cut loses them.
     */
    void writeBufDurable(Addr paddr, const void *src, std::uint64_t size,
                         std::optional<fault::SiteId> pre_fence_site = {});

    /** Read the crash-surviving NVM image (recovery path). */
    void
    readDurableBuf(Addr paddr, void *dst, std::uint64_t size)
    {
        // Recovery-time reads: device-speed bulk read.
        sim.bump(memory.submit(
            {mem::MemCmd::bulkRead, roundDown(paddr, lineSize),
             roundUp(size, lineSize)},
            sim.now()));
        memory.readNvmDurable(paddr, dst, size);
    }

    /** clwb one line (timing + durability commit). */
    void
    clwb(Addr paddr)
    {
        sim.bump(caches.clwb(paddr, sim.now()));
    }

    /**
     * Store fence.  After the fence has waited out the controller
     * drains, every previously buffered NVM write is on media — tell
     * the durability model so a later crash cannot lose them.
     */
    void
    sfence()
    {
        sim.bump(caches.sfence(sim.now()));
        memory.drainWrites(sim.now());
    }

    /**
     * 4 KiB-granular copy between physical pages.  Cache lines of the
     * source are flushed first when @p flush_src (HSCC's page-copy
     * protocol); the destination image is durable iff it lands in NVM.
     */
    void copyPage(Addr dst, Addr src, bool flush_src);

    /** Streaming durable write of zeros (fresh durable region init). */
    void zeroDurable(Addr paddr, std::uint64_t size);

    sim::Simulation &simulation() { return sim; }
    mem::HybridMemory &mem() { return memory; }
    cache::Hierarchy &hierarchy() { return caches; }

  private:
    sim::Simulation &sim;
    mem::HybridMemory &memory;
    cache::Hierarchy &caches;
};

} // namespace kindle::os

#endif // KINDLE_OS_KERNEL_MEM_HH
