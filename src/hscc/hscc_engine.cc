#include "hscc/hscc_engine.hh"

#include <algorithm>

#include "base/logging.hh"
#include "fault/fault.hh"
#include "trace/profiler.hh"
#include "trace/trace.hh"

namespace kindle::hscc
{

using cpu::Pte;

namespace
{

/** @p pages, once that pool and its mapping table fit in @p dram. */
unsigned
poolPagesThatFit(unsigned pages, const os::FrameAllocator &dram)
{
    const std::uint64_t table = MappingTable::framesFor(pages);
    if (pages + table > dram.freeFrames()) {
        kindle_fatal("hscc: a {}-page DRAM pool and its {} mapping-table "
                     "frames do not fit in the DRAM zone's {} free frames",
                     pages, table, dram.freeFrames());
    }
    return pages;
}

} // namespace

HsccEngine::HsccEngine(const HsccParams &params, os::Kernel &kernel_arg)
    : _params(params),
      kernel(kernel_arg),
      dramPool(poolPagesThatFit(params.dramPoolPages,
                                kernel_arg.dramAllocator()),
               kernel_arg.dramAllocator()),
      mapTable(params.dramPoolPages, kernel_arg.kmem(),
               kernel_arg.dramAllocator()),
      migrateTimer("hsccMigrate", sim::Event::Priority::migration,
                   kernel_arg.simulation(), [this] { migrate(); }),
      statGroup("hscc",
                "HW/SW cooperative DRAM caching engine"),
      migrated(statGroup.addScalar("pagesMigrated",
                                   "NVM pages migrated to DRAM")),
      intervals(statGroup.addScalar("intervals",
                                    "migration intervals run")),
      candidatesSeen(statGroup.addScalar(
          "candidates", "pages above the fetch threshold")),
      reverts(statGroup.addScalar("reverts",
                                  "cached pages displaced")),
      copyBacks(statGroup.addScalar("copyBacks",
                                    "dirty DRAM→NVM copy-backs")),
      selTicks(statGroup.addScalar("selectionTicks",
                                   "time in page selection")),
      cpTicks(statGroup.addScalar("copyTicks", "time in page copy")),
      migTicks(statGroup.addScalar("migrationTicks",
                                   "total OS migration time")),
      countWritebacks(statGroup.addScalar(
          "countWritebacks", "TLB→PTE access-count spills")),
      thresholdRaises(statGroup.addScalar(
          "thresholdRaises", "dynamic threshold increases")),
      thresholdDrops(statGroup.addScalar(
          "thresholdDrops", "dynamic threshold decreases"))
{
    curThreshold = params.fetchThreshold;
    statGroup.addChild(dramPool.stats());
    statGroup.addChild(mapTable.stats());
}

HsccEngine::~HsccEngine()
{
    stop();
}

void
HsccEngine::start()
{
    if (migrateTimer.running())
        return;
    // Access counting happens in every core's translation hardware.
    for (CpuId c = 0; c < kernel.numCores(); ++c) {
        cpu::Core &core = kernel.core(c);
        core.addHooks(this);
        core.msrs().write(cpu::MsrId::hsccEnable, 1);
    }
    kernel.addListener(this);
    migrateTimer.start(_params.migrationInterval);
}

void
HsccEngine::stop()
{
    if (!migrateTimer.running())
        return;
    for (CpuId c = 0; c < kernel.numCores(); ++c) {
        cpu::Core &core = kernel.core(c);
        core.removeHooks(this);
        core.msrs().write(cpu::MsrId::hsccEnable, 0);
    }
    kernel.removeListener(this);
    migrateTimer.stop();
}

Pte
HsccEngine::pteGet(Addr pte_addr)
{
    if (_params.chargeOsTime)
        return Pte{kernel.kmem().read64(pte_addr)};
    return Pte{kernel.kmem().mem().readT<std::uint64_t>(pte_addr)};
}

void
HsccEngine::ptePut(Addr pte_addr, Pte pte)
{
    if (_params.chargeOsTime)
        kernel.kmem().write64(pte_addr, pte.raw);
    else
        kernel.kmem().mem().writeT<std::uint64_t>(pte_addr, pte.raw);
}

void
HsccEngine::onLlcMiss(cpu::TlbEntry &entry, Addr vaddr, bool is_write)
{
    (void)vaddr;
    (void)is_write;
    if (!entry.nvmBacked || entry.hsccRemapped)
        return;
    if (entry.accessCount < 1023)
        ++entry.accessCount;
    if (!entry.countSyncedThisInterval) {
        // Hardware writes the count out once per migration interval
        // during translation; further increments stay TLB-local.
        entry.countSyncedThisInterval = true;
        ++countWritebacks;
        Pte pte{kernel.kmem().mem().readT<std::uint64_t>(entry.pteAddr)};
        pte.setAccessCount(entry.accessCount);
        // Count spills are hardware-generated stores and always cost.
        kernel.kmem().write64(entry.pteAddr, pte.raw);
    }
}

void
HsccEngine::onDataWrite(cpu::TlbEntry &entry, Addr vaddr,
                        std::uint64_t size)
{
    (void)vaddr;
    (void)size;
    if (!entry.hsccRemapped)
        return;
    // Every store to a DRAM-cached page looks its home up with one
    // timed table read; the first store after the bind marks the
    // slot dirty.
    const Addr home =
        mapTable.nvmAt(dramPool.slotOf(entry.pfn << pageShift));
    if (home != invalidAddr)
        dramPool.markDirty(home);
}

void
HsccEngine::onTlbEvict(const cpu::TlbEntry &entry)
{
    if (!entry.nvmBacked || entry.hsccRemapped ||
        entry.accessCount == 0) {
        return;
    }
    // Access count written out to the PTE on TLB eviction.
    ++countWritebacks;
    Pte pte{kernel.kmem().mem().readT<std::uint64_t>(entry.pteAddr)};
    if (entry.accessCount > pte.accessCount()) {
        pte.setAccessCount(entry.accessCount);
        kernel.kmem().write64(entry.pteAddr, pte.raw);
    }
}

void
HsccEngine::revertMapping(Addr nvm_home, const PageMapping &at)
{
    ++reverts;
    Pte pte = pteGet(at.pteAddr);
    if (pte.present() && pte.hsccRemapped()) {
        pte.setPfn(nvm_home >> pageShift);
        pte.setHsccRemapped(false);
        pte.setAccessCount(0);
        ptePut(at.pteAddr, pte);
    }
    // The PTE changed under a possibly-running process: every core's
    // stale translation must go, not just the local one.
    kernel.shootdownPage(at.pid, at.vaddr);
}

void
HsccEngine::migrate()
{
    KINDLE_PROF_SCOPE(hscc);
    auto &sim = kernel.simulation();
    const Tick t0 = sim.now();
    trace::TraceSpan span(trace::Flag::hscc, "hscc.migrate");
    ++intervals;

    // Interval start: refresh the pool's free/clean/dirty lists.  In
    // OS-cost mode, charge one mapping-table read per pool slot for
    // the list derivation.
    dramPool.refreshLists();
    if (_params.chargeOsTime) {
        for (unsigned i = 0; i < dramPool.size(); ++i)
            kernel.kmem().read64(kernel.nvmLayout().hsccTable);
    }

    // Spill TLB-resident counts so the PTE scan sees fresh values.
    for (CpuId c = 0; c < kernel.numCores(); ++c) {
        kernel.core(c).tlb().forEachValid([&](cpu::TlbEntry &e) {
            if (!e.nvmBacked || e.hsccRemapped || e.accessCount == 0)
                return;
            Pte pte{
                kernel.kmem().mem().readT<std::uint64_t>(e.pteAddr)};
            if (e.accessCount > pte.accessCount()) {
                pte.setAccessCount(e.accessCount);
                ptePut(e.pteAddr, pte);
            }
        });
    }

    // Candidate scan: software page-table walk over every process.
    std::vector<Candidate> candidates;
    std::vector<std::pair<Addr, os::Process *>> counted;
    for (const auto &proc : kernel.processes()) {
        if (proc->state == os::ProcState::zombie ||
            proc->ptRoot == invalidAddr) {
            continue;
        }
        const auto visit = [&](Addr va, Pte pte, Addr entry_addr) {
            if (!pte.nvmBacked() || pte.hsccRemapped())
                return;
            if (pte.accessCount() > 0)
                counted.emplace_back(entry_addr, proc.get());
            if (pte.accessCount() >= curThreshold) {
                candidates.push_back(
                    {proc.get(), va, entry_addr, pte});
            }
        };
        if (_params.chargeOsTime) {
            kernel.pageTables().forEachLeaf(proc->ptRoot, visit);
        } else {
            kernel.pageTables().forEachLeafFunctional(proc->ptRoot,
                                                      visit);
        }
    }
    candidatesSeen += static_cast<double>(candidates.size());

    // Migrate each candidate: page selection, then page copy.
    for (const Candidate &c : candidates) {
        // --- Page selection ---------------------------------------
        const Tick sel0 = sim.now();
        KINDLE_TRACE_SPAN_ARGS(hscc, "hscc.migratePage",
                               "vaddr={}", c.vaddr);
        Selection sel = dramPool.select();
        if (sel.displacedNvm != invalidAddr) {
            if (sel.needsCopyBack) {
                ++copyBacks;
                // Write the dirty DRAM copy back to its NVM home
                // before reusing the page.  The device transfer costs
                // in both modes; the flush management is OS work.
                if (_params.chargeOsTime) {
                    sim.bump(kernel.kmem().hierarchy().clwbPage(
                        sel.dramFrame, sim.now()));
                }
                sim.bump(kernel.kmem().mem().submit(
                    {mem::MemCmd::bulkRead, sel.dramFrame, pageSize},
                    sim.now()));
                sim.bump(kernel.kmem().mem().submit(
                    {mem::MemCmd::bulkWrite, sel.displacedNvm,
                     pageSize},
                    sim.now()));
            }
            revertMapping(sel.displacedNvm, sel.displaced);
            if (_params.chargeOsTime)
                mapTable.clear(sel.index);
        }
        selTicks += static_cast<double>(sim.now() - sel0);

        // --- Page copy ---------------------------------------------
        const Tick copy0 = sim.now();
        const Addr nvm_frame = c.pte.frameAddr();
        if (_params.chargeOsTime) {
            // Flush cached lines of the page under migration.
            sim.bump(kernel.kmem().hierarchy().clwbPage(nvm_frame,
                                                        sim.now()));
        }
        sim.bump(kernel.kmem().mem().submit(
            {mem::MemCmd::bulkRead, nvm_frame, pageSize}, sim.now()));
        sim.bump(kernel.kmem().mem().submit(
            {mem::MemCmd::bulkWrite, sel.dramFrame, pageSize},
            sim.now()));
        KINDLE_CRASH_SITE("hscc.after_copy");

        Pte updated = c.pte;
        updated.setPfn(sel.dramFrame >> pageShift);
        updated.setHsccRemapped(true);
        updated.setAccessCount(0);
        ptePut(c.pteAddr, updated);
        mapTable.set(sel.index, nvm_frame, sel.dramFrame);

        dramPool.bind(sel.index, nvm_frame,
                      {c.proc->pid, c.vaddr, c.pteAddr});
        kernel.shootdownPage(c.proc->pid, c.vaddr);
        ++migrated;
        cpTicks += static_cast<double>(sim.now() - copy0);
    }

    // Reset every counted PTE and invalidate TLB entries so the next
    // interval sees only fresh accesses.
    for (const auto &[entry_addr, proc] : counted) {
        Pte pte = pteGet(entry_addr);
        if (pte.present() && pte.accessCount() > 0 &&
            !pte.hsccRemapped()) {
            pte.setAccessCount(0);
            ptePut(entry_addr, pte);
        }
    }
    for (CpuId c = 0; c < kernel.numCores(); ++c) {
        kernel.core(c).tlb().forEachValid([&](cpu::TlbEntry &e) {
            e.accessCount = 0;
            e.countSyncedThisInterval = false;
        });
    }

    // Dynamic threshold adjustment (extension; see HsccParams).
    if (_params.dynamicThreshold) {
        if (candidates.size() > dramPool.size() &&
            curThreshold < _params.maxThreshold) {
            curThreshold = std::min(_params.maxThreshold,
                                    curThreshold * 2);
            ++thresholdRaises;
        } else if (candidates.size() < dramPool.size() / 4 &&
                   curThreshold > _params.minThreshold) {
            curThreshold =
                std::max(_params.minThreshold, curThreshold / 2);
            ++thresholdDrops;
        }
    }

    migTicks += static_cast<double>(sim.now() - t0);
    if (span.active()) {
        span.setArgs("candidates={} migrated={}", candidates.size(),
                     migrated.value());
    }
}

bool
HsccEngine::resolveRemappedFrame(os::Process &proc, Addr vaddr,
                                 Addr mapped_frame, Addr *home_out)
{
    (void)proc;
    (void)vaddr;
    const Addr home = mapTable.nvmAt(dramPool.slotOf(mapped_frame));
    if (home == invalidAddr)
        return false;
    // Reclaim the pool slot; the DRAM frame stays pool-owned.
    dramPool.release(home);
    *home_out = home;
    return true;
}

} // namespace kindle::hscc
