#include "cpu/core.hh"

#include <algorithm>

#include "base/intmath.hh"
#include "base/logging.hh"

namespace kindle::cpu
{

Core::Core(const CoreParams &params, sim::Simulation &sim_arg,
           mem::HybridMemory &memory_arg, cache::Hierarchy &caches_arg,
           CpuId cpu_id, const std::string &stat_name)
    : _params(params),
      id(cpu_id),
      sim(sim_arg),
      memory(memory_arg),
      caches(caches_arg),
      clockDomain(sim::ClockDomain::fromMHz(params.freqMHz)),
      dtlb(params.tlb,
           [this](const TlbEntry &e) {
               for (auto *h : hooks)
                   h->onTlbEvict(e);
           }),
      ptWalker(memory_arg, caches_arg, cpu_id),
      statGroup(stat_name, "in-order core"),
      memOps(statGroup.addScalar("memOps", "loads+stores executed")),
      computeOps(statGroup.addScalar("computeOps",
                                     "compute bursts executed")),
      pageFaults(statGroup.addScalar("pageFaults",
                                     "faults delivered to the OS")),
      illegalAccesses(statGroup.addScalar(
          "illegalAccesses", "accesses the OS refused to map")),
      walkLatency(statGroup.addHistogram(
          "walkLatency", "TLB-miss page-walk latency (ticks)"))
{
    statGroup.addChild(dtlb.stats());
    statGroup.addChild(ptWalker.stats());
}

TlbEntry *
Core::translateToEntry(Addr vaddr, bool is_write, Tick &latency)
{
    const std::uint64_t vpn = vpnOf(vaddr);

    Tick tlb_extra = 0;
    if (TlbEntry *entry = dtlb.lookup(curPid, vpn, tlb_extra)) {
        latency += tlb_extra;
        return entry;
    }
    latency += tlb_extra;

    // TLB miss: walk, faulting to the OS at most a bounded number of
    // times (the handler may need to populate several levels).
    for (int attempt = 0; attempt < 8; ++attempt) {
        WalkResult res = ptWalker.walk(curPtbr, vaddr, sim.now());
        latency += res.latency;
        sim.bump(res.latency);
        walkLatency.sample(static_cast<double>(res.latency));
        if (!res.fault) {
            TlbEntry entry;
            entry.pid = curPid;
            entry.vpn = vpn;
            entry.pfn = res.leaf.pfn();
            entry.writable = res.leaf.writable();
            entry.nvmBacked = res.leaf.nvmBacked();
            entry.accessCount = res.leaf.accessCount();
            entry.hsccRemapped = res.leaf.hsccRemapped();
            entry.pteAddr = res.leafAddr;
            for (auto *h : hooks)
                h->onTlbFill(entry, res.leaf);
            return &dtlb.fill(entry);
        }
        ++pageFaults;
        if (!faultHandler ||
            !faultHandler->handlePageFault(*this, vaddr, is_write)) {
            ++illegalAccesses;
            return nullptr;
        }
    }
    kindle_panic("page fault at {} not resolved after 8 retries", vaddr);
}

bool
Core::memAccess(bool is_write, Addr vaddr, std::uint64_t size)
{
    kindle_assert(size > 0, "zero-byte memory access");
    sim.service();
    ++memOps;

    Tick latency = clockDomain.cyclesToTicks(_params.cyclesPerOp);

    // Split accesses spanning page boundaries.
    Addr cursor = vaddr;
    std::uint64_t remaining = size;
    while (remaining > 0) {
        const std::uint64_t in_page = cursor & (pageSize - 1);
        const std::uint64_t chunk =
            std::min(remaining, pageSize - in_page);

        TlbEntry *entry = translateToEntry(cursor, is_write, latency);
        if (!entry) {
            sim.bump(latency);
            return false;
        }
        if (is_write) {
            for (auto *h : hooks)
                h->onDataWrite(*entry, cursor, chunk);
        }

        const Addr paddr = (entry->pfn << pageShift) | in_page;
        const auto res = caches.access(
            id, is_write ? mem::MemCmd::write : mem::MemCmd::read,
            paddr, chunk, sim.now() + latency);
        latency += res.latency;
        if (res.llcMiss) {
            for (auto *h : hooks)
                h->onLlcMiss(*entry, cursor, is_write);
        }

        // The simulator models timing, metadata and durability; user
        // data payloads are synthesized by the callers that care.
        cursor += chunk;
        remaining -= chunk;
    }

    cpuState.rip += 4;
    sim.bump(latency);
    return true;
}

void
Core::compute(Cycles cycles)
{
    sim.service();
    ++computeOps;
    cpuState.rip += 4;
    sim.bump(clockDomain.cyclesToTicks(cycles));
}

Addr
Core::translate(Addr vaddr, bool is_write)
{
    Tick latency = 0;
    TlbEntry *entry = translateToEntry(vaddr, is_write, latency);
    sim.bump(latency);
    if (!entry)
        return invalidAddr;
    return (entry->pfn << pageShift) | (vaddr & (pageSize - 1));
}

void
Core::addHooks(CoreHooks *hooks_arg)
{
    hooks.push_back(hooks_arg);
}

void
Core::removeHooks(CoreHooks *hooks_arg)
{
    hooks.erase(std::remove(hooks.begin(), hooks.end(), hooks_arg),
                hooks.end());
}

void
Core::reset()
{
    dtlb.reset();
    msrFile.reset();
    cpuState = CpuState{};
    curPid = 0;
    curPtbr = invalidAddr;
}

} // namespace kindle::cpu
