/**
 * @file
 * The cache hierarchy (32 KiB L1 / 512 KiB L2 per core, one shared
 * 2 MiB LLC, matching the paper's gem5 configuration) in front of the
 * hybrid memory system.
 *
 * With one core this degenerates to the classic three-level chain.
 * With N cores each core owns a private L1+L2 pair, all chained into
 * the shared LLC, and a MESI-lite directory generates the
 * invalidation / forced-writeback messages between private caches.
 */

#ifndef KINDLE_CACHE_HIERARCHY_HH
#define KINDLE_CACHE_HIERARCHY_HH

#include <memory>
#include <vector>

#include "base/stats.hh"
#include "cache/cache.hh"
#include "cache/coherence.hh"
#include "mem/hybrid_memory.hh"

namespace kindle::cache
{

/** Result of a demand access through the hierarchy. */
struct AccessResult
{
    Tick latency = 0;    ///< requester-visible latency
    bool llcMiss = false; ///< at least one line missed in the LLC
};

/** Hierarchy geometry; defaults follow the paper (§III). */
struct HierarchyParams
{
    CacheParams l1{"l1", 32 * oneKiB, 8, oneNs, oneNs};
    CacheParams l2{"l2", 512 * oneKiB, 8, 4 * oneNs, 2 * oneNs};
    CacheParams llc{"llc", 2 * oneMiB, 16, 10 * oneNs, 4 * oneNs};
    /** One-way latency of a coherence message between private caches. */
    Tick coherenceMsgLatency = 20 * oneNs;
};

/**
 * Per-core L1 → L2 → shared LLC → memory, with clwb/flush/invalidate
 * operations that propagate the newest copy of a line down to the
 * device (which is what makes data durable when the line lives in
 * NVM).
 */
class Hierarchy
{
  public:
    Hierarchy(const HierarchyParams &params, mem::HybridMemory &memory,
              unsigned num_cores = 1);

    unsigned numCores() const { return nCores; }

    /** Demand access of @p size bytes at physical @p paddr by @p cpu. */
    AccessResult access(CpuId cpu, mem::MemCmd cmd, Addr paddr,
                        std::uint64_t size, Tick now);

    /**
     * Demand access attributed to the current initiator (see
     * setInitiator) — the path un-annotated kernel-mode accesses take.
     */
    AccessResult
    access(mem::MemCmd cmd, Addr paddr, std::uint64_t size, Tick now)
    {
        return access(initiator_, cmd, paddr, size, now);
    }

    /**
     * Route subsequent un-annotated accesses (kernel memory gateway,
     * redo log, engine metadata) through @p cpu's private caches.  The
     * kernel sets this to the core it is currently executing on.
     */
    void setInitiator(CpuId cpu);
    CpuId initiator() const { return initiator_; }

    /**
     * clwb: write the newest copy of the line back to memory, leaving
     * cached copies resident but clean.  Returns latency.
     */
    Tick clwb(Addr line_addr, Tick now);

    /** Flush + invalidate one line everywhere (clflush). */
    Tick clflush(Addr line_addr, Tick now);

    /** clwb over a whole 4 KiB page. */
    Tick clwbPage(Addr page_addr, Tick now);

    /**
     * Store fence cost: orders prior flushes; constant small latency
     * (drain of the store buffer).
     */
    Tick sfence(Tick now);

    /** Write back everything, then invalidate (orderly shutdown). */
    Tick flushAll(Tick now);

    /** Power loss: every cached line vanishes un-written-back. */
    void invalidateAll();

    /**
     * Hotplug offlining of @p cpu: flush its private L1/L2 (dirty
     * lines land in the shared LLC — nothing is stranded), invalidate
     * both, and drop the core's claims from the MESI directory.
     * Returns the flush latency (charged to the surviving initiator).
     */
    Tick offlineCore(CpuId cpu, Tick now);

    Cache &l1(CpuId cpu = 0) { return *l1Caches.at(cpu); }
    Cache &l2(CpuId cpu = 0) { return *l2Caches.at(cpu); }
    Cache &llc() { return *llcCache; }
    const Cache &llc() const { return *llcCache; }

    /** The MESI-lite directory (present only with >1 core). */
    MesiDirectory *directory() { return directory_.get(); }

    statistics::StatGroup &stats() { return statGroup; }

  private:
    /** Adapts HybridMemory to the MemSink interface. */
    class MemAdapter : public MemSink
    {
      public:
        explicit MemAdapter(mem::HybridMemory &m) : memory(m) {}

        Tick
        request(mem::MemCmd cmd, Addr line_addr, Tick now) override
        {
            return memory.submit({cmd, line_addr, lineSize}, now);
        }

      private:
        mem::HybridMemory &memory;
    };

    /**
     * Deliver the coherence messages @p act requires for @p line_addr
     * (remote writebacks, then remote invalidations), excluding the
     * requester @p cpu.  Returns the latency charged to the requester.
     */
    Tick deliverCoherence(const CoherenceActions &act, CpuId cpu,
                          Addr line_addr, Tick now);

    mem::HybridMemory &memory;
    MemAdapter adapter;
    unsigned nCores;
    Tick msgLatency;
    CpuId initiator_ = 0;

    std::unique_ptr<Cache> llcCache;
    std::vector<std::unique_ptr<Cache>> l2Caches;
    std::vector<std::unique_ptr<Cache>> l1Caches;
    std::unique_ptr<MesiDirectory> directory_;

    statistics::StatGroup statGroup;
    /** One wrapper group per core ("cpu0", ...) when nCores > 1. */
    std::vector<std::unique_ptr<statistics::StatGroup>> cpuGroups;
    statistics::Scalar &accesses;
    statistics::Scalar &llcMisses;
    statistics::Scalar &clwbs;
    statistics::Scalar &fences;
};

} // namespace kindle::cache

#endif // KINDLE_CACHE_HIERARCHY_HH
