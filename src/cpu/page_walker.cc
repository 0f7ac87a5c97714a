#include "cpu/page_walker.hh"

#include "base/logging.hh"
#include "trace/profiler.hh"

namespace kindle::cpu
{

PageWalker::PageWalker(mem::HybridMemory &memory_arg,
                       cache::Hierarchy &caches_arg, CpuId cpu_arg)
    : memory(memory_arg),
      caches(caches_arg),
      cpu(cpu_arg),
      statGroup("pageWalker", "hardware page-table walker"),
      walks(statGroup.addScalar("walks", "page-table walks")),
      faults(statGroup.addScalar("faults", "walks hitting a hole")),
      levelReads(statGroup.addScalar("levelReads",
                                     "page-table entry reads"))
{}

WalkResult
PageWalker::walk(Addr ptbr, Addr vaddr, Tick now)
{
    kindle_assert(ptbr != invalidAddr && ptbr != 0,
                  "walk with no page table loaded");
    KINDLE_PROF_SCOPE(pwalk);
    ++walks;

    WalkResult result;
    Addr table = ptbr;
    for (int level = ptLevels - 1; level >= 0; --level) {
        const Addr entry_addr =
            table + ptIndex(vaddr, static_cast<unsigned>(level)) *
                        ptEntrySize;
        ++levelReads;
        result.latency += caches
                              .access(cpu, mem::MemCmd::read,
                                      entry_addr, ptEntrySize,
                                      now + result.latency)
                              .latency;
        Pte pte{memory.readT<std::uint64_t>(entry_addr)};
        if (!pte.present()) {
            ++faults;
            result.fault = true;
            result.faultLevel = static_cast<unsigned>(level);
            return result;
        }
        if (level == 0) {
            result.leaf = pte;
            result.leafAddr = entry_addr;
            return result;
        }
        table = pte.frameAddr();
    }
    kindle_panic("page walk fell off the radix");
}

} // namespace kindle::cpu
