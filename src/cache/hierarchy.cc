#include "cache/hierarchy.hh"

#include <algorithm>

#include "base/intmath.hh"
#include "base/logging.hh"
#include "base/str.hh"
#include "telemetry/profiler.hh"

namespace kindle::cache
{

Hierarchy::Hierarchy(const HierarchyParams &params,
                     mem::HybridMemory &memory_arg, unsigned num_cores)
    : memory(memory_arg),
      adapter(memory_arg),
      nCores(num_cores),
      msgLatency(params.coherenceMsgLatency),
      llcCache(std::make_unique<Cache>(params.llc, adapter)),
      statGroup("cacheHierarchy",
                "three-level write-back cache hierarchy"),
      accesses(statGroup.addScalar("accesses", "demand accesses")),
      llcMisses(statGroup.addScalar("llcMisses",
                                    "accesses missing in the LLC")),
      clwbs(statGroup.addScalar("clwbs", "clwb line flushes")),
      fences(statGroup.addScalar("fences", "store fences"))
{
    kindle_assert(num_cores >= 1 && num_cores <= 32,
                  "hierarchy supports 1-32 cores, got {}", num_cores);
    for (unsigned c = 0; c < nCores; ++c) {
        l2Caches.push_back(
            std::make_unique<Cache>(params.l2, *llcCache));
        l1Caches.push_back(
            std::make_unique<Cache>(params.l1, *l2Caches.back()));
    }

    if (nCores == 1) {
        // Single-core stat layout is byte-identical to the classic
        // three-level chain: l1 / l2 / llc directly under the group.
        statGroup.addChild(l1Caches[0]->stats());
        statGroup.addChild(l2Caches[0]->stats());
        statGroup.addChild(llcCache->stats());
    } else {
        directory_ = std::make_unique<MesiDirectory>(nCores);
        for (unsigned c = 0; c < nCores; ++c) {
            cpuGroups.push_back(
                std::make_unique<statistics::StatGroup>(
                    csprintf("cpu{}", c),
                    csprintf("core {} private caches", c)));
            cpuGroups.back()->addChild(l1Caches[c]->stats());
            cpuGroups.back()->addChild(l2Caches[c]->stats());
            statGroup.addChild(*cpuGroups.back());
        }
        statGroup.addChild(llcCache->stats());
        statGroup.addChild(directory_->stats());
    }
}

void
Hierarchy::setInitiator(CpuId cpu)
{
    kindle_assert(cpu < nCores, "initiator core {} of {}", cpu,
                  nCores);
    initiator_ = cpu;
}

Tick
Hierarchy::deliverCoherence(const CoherenceActions &act, CpuId cpu,
                            Addr line_addr, Tick now)
{
    Tick latency = 0;
    for (CpuId c = 0; c < nCores; ++c) {
        const std::uint32_t bit = 1u << c;
        if (c == cpu)
            continue;
        if (act.writebackFrom & bit) {
            // Force the dirty copy down to the shared LLC; the line
            // stays resident clean in the remote core's caches.
            latency += 2 * msgLatency; // request + reply hop
            bool dirty = false;
            latency += l1Caches[c]->flushLine(line_addr,
                                              now + latency, dirty);
            latency += l2Caches[c]->flushLine(line_addr,
                                              now + latency, dirty);
        }
        if (act.invalidate & bit) {
            // Drop the remote private copies; invalidateLine pushes
            // dirty data down on its way out.
            latency += 2 * msgLatency;
            latency += l1Caches[c]->invalidateLine(line_addr,
                                                   now + latency);
            latency += l2Caches[c]->invalidateLine(line_addr,
                                                   now + latency);
        }
    }
    return latency;
}

AccessResult
Hierarchy::access(CpuId cpu, mem::MemCmd cmd, Addr paddr,
                  std::uint64_t size, Tick now)
{
    kindle_assert(size > 0, "zero-size access");
    kindle_assert(cpu < nCores, "access from core {} of {}", cpu,
                  nCores);
    KINDLE_PROF_SCOPE(cache);
    ++accesses;

    AccessResult result;
    const double llc_misses_before = llcCache->missCount();

    const bool is_write = cmd == mem::MemCmd::write ||
                          cmd == mem::MemCmd::bulkWrite;
    Addr line = roundDown(paddr, lineSize);
    const Addr last = roundDown(paddr + size - 1, lineSize);
    while (true) {
        if (directory_) {
            const CoherenceActions act =
                directory_->access(line, cpu, is_write);
            result.latency += deliverCoherence(
                act, cpu, line, now + result.latency);
        }
        result.latency += l1Caches[cpu]->request(
            cmd, line, now + result.latency);
        if (line == last)
            break;
        line += lineSize;
    }

    if (llcCache->missCount() > llc_misses_before) {
        result.llcMiss = true;
        ++llcMisses;
    }
    return result;
}

Tick
Hierarchy::clwb(Addr line_addr, Tick now)
{
    ++clwbs;
    line_addr = roundDown(line_addr, lineSize);
    // Push the newest copy down one level at a time: every private
    // L1 → its L2 → LLC → memory.  At most one core holds a dirty
    // copy (MESI), so chaining all private pairs before the LLC lands
    // the freshest data in the device; with one core this is exactly
    // the classic L1 → L2 → LLC chain.
    bool dirty = false;
    Tick latency = 0;
    for (unsigned c = 0; c < nCores; ++c) {
        latency += l1Caches[c]->flushLine(line_addr, now + latency,
                                          dirty);
        latency += l2Caches[c]->flushLine(line_addr, now + latency,
                                          dirty);
    }
    latency += llcCache->flushLine(line_addr, now + latency, dirty);
    if (directory_)
        directory_->cleanLine(line_addr);
    if (!dirty) {
        // Clean everywhere (or absent): still charge the pipeline cost
        // of the instruction, but confirm durability of the line if it
        // maps to NVM — a clean cached copy means the device already
        // has the data.
        memory.commitNvmLine(line_addr);
    }
    return latency;
}

Tick
Hierarchy::clflush(Addr line_addr, Tick now)
{
    line_addr = roundDown(line_addr, lineSize);
    Tick latency = clwb(line_addr, now);
    // Invalidate clean copies (no further writebacks possible since
    // clwb left everything clean).
    for (unsigned c = 0; c < nCores; ++c) {
        latency += l1Caches[c]->invalidateLine(line_addr,
                                               now + latency);
        latency += l2Caches[c]->invalidateLine(line_addr,
                                               now + latency);
    }
    latency += llcCache->invalidateLine(line_addr, now + latency);
    if (directory_)
        directory_->dropLine(line_addr);
    return latency;
}

Tick
Hierarchy::clwbPage(Addr page_addr, Tick now)
{
    page_addr = roundDown(page_addr, pageSize);
    Tick latency = 0;
    for (unsigned i = 0; i < linesPerPage; ++i)
        latency += clwb(page_addr + i * lineSize, now + latency);
    return latency;
}

Tick
Hierarchy::clflushPage(Addr page_addr, Tick now)
{
    page_addr = roundDown(page_addr, pageSize);
    Tick latency = 0;
    for (unsigned i = 0; i < linesPerPage; ++i)
        latency += clflush(page_addr + i * lineSize, now + latency);
    return latency;
}

Tick
Hierarchy::sfence(Tick now)
{
    ++fences;
    // A fence ordering durable stores must wait until every posted
    // write accepted by the controllers has actually reached the
    // device — that drain, not the store-buffer flush, is what makes
    // fences after NVM writes expensive.
    constexpr Tick storeBufferDrain = 30 * oneNs;
    const Tick drained =
        std::max(memory.dramCtrl().writesDrainedAt(),
                 memory.nvmCtrl().writesDrainedAt());
    const Tick done = std::max(now + storeBufferDrain, drained);
    return done - now;
}

Tick
Hierarchy::flushAll(Tick now)
{
    Tick latency = 0;
    for (unsigned c = 0; c < nCores; ++c) {
        latency += l1Caches[c]->flushAll(now + latency);
        latency += l2Caches[c]->flushAll(now + latency);
    }
    latency += llcCache->flushAll(now + latency);
    if (directory_)
        directory_->reset();
    return latency;
}

Tick
Hierarchy::offlineCore(CpuId cpu, Tick now)
{
    kindle_assert(cpu < nCores, "offlining core {} of {}", cpu,
                  nCores);
    Tick latency = 0;
    latency += l1Caches[cpu]->flushAll(now + latency);
    latency += l2Caches[cpu]->flushAll(now + latency);
    l1Caches[cpu]->invalidateAll();
    l2Caches[cpu]->invalidateAll();
    if (directory_)
        directory_->offlineCore(cpu);
    return latency;
}

void
Hierarchy::invalidateAll()
{
    for (unsigned c = 0; c < nCores; ++c) {
        l1Caches[c]->invalidateAll();
        l2Caches[c]->invalidateAll();
    }
    llcCache->invalidateAll();
    if (directory_)
        directory_->reset();
}

} // namespace kindle::cache
