#include "ssp/ssp_engine.hh"

#include "base/bitfield.hh"
#include "base/logging.hh"
#include "trace/profiler.hh"
#include "trace/trace.hh"

namespace kindle::ssp
{

SspEngine::SspEngine(const SspParams &params, os::Kernel &kernel_arg)
    : _params(params),
      kernel(kernel_arg),
      sspCache(kernel_arg.kmem(), kernel_arg.nvmLayout()),
      intervalTimer("sspInterval", sim::Event::Priority::ckpt,
                    kernel_arg.simulation(), [this] { commitInterval(); }),
      consolidateTimer("sspConsolidate", sim::Event::Priority::consolidate,
                       kernel_arg.simulation(), [this] { consolidate(); }),
      statGroup("ssp", "shadow sub-paging engine"),
      shadowAllocs(statGroup.addScalar("shadowPages",
                                       "shadow pages allocated")),
      intervalCommits(statGroup.addScalar(
          "intervalCommits", "consistency intervals committed")),
      linesFlushed(statGroup.addScalar("linesFlushed",
                                       "data lines clwb'd at commits")),
      bitmapSpills(statGroup.addScalar(
          "bitmapSpills", "TLB bitmap spills to the SSP cache")),
      consolidations(statGroup.addScalar(
          "consolidations", "consolidation thread invocations")),
      pagesConsolidated(statGroup.addScalar(
          "pagesConsolidated", "page pairs merged")),
      consolidateTicks(statGroup.addScalar(
          "consolidateTicks", "time spent consolidating")),
      commitTicks(statGroup.addScalar("commitTicks",
                                      "time spent in commits")),
      metadataInspections(statGroup.addScalar(
          "metadataInspections",
          "SSP cache entries inspected at interval ends"))
{
    statGroup.addChild(sspCache.stats());
}

SspEngine::~SspEngine()
{
    stop();
}

void
SspEngine::start()
{
    if (intervalTimer.running())
        return;
    // Every core's translation hardware participates: hooks and the
    // SSP MSRs are replicated per core.
    for (CpuId c = 0; c < kernel.numCores(); ++c)
        kernel.core(c).addHooks(this);
    kernel.addListener(this);
    intervalTimer.start(_params.consistencyInterval);
    consolidateTimer.start(_params.consolidationInterval);
    // Publish the SSP cache base to the translation hardware.
    for (CpuId c = 0; c < kernel.numCores(); ++c) {
        kernel.core(c).msrs().write(cpu::MsrId::sspCacheBase,
                                    sspCache.base());
    }
}

void
SspEngine::stop()
{
    if (!intervalTimer.running())
        return;
    armed = false;
    for (CpuId c = 0; c < kernel.numCores(); ++c)
        kernel.core(c).removeHooks(this);
    kernel.removeListener(this);
    intervalTimer.stop();
    consolidateTimer.stop();
}

bool
SspEngine::inTrackedRange(Pid pid, Addr vaddr) const
{
    if (!armed || pid != armedPid)
        return false;
    // The SSP MSRs are written identically on every core; read the
    // canonical copy on core 0.
    const auto &msrs = kernel.core(0).msrs();
    return msrs.read(cpu::MsrId::sspEnable) != 0 &&
           vaddr >= msrs.read(cpu::MsrId::sspNvmRangeStart) &&
           vaddr < msrs.read(cpu::MsrId::sspNvmRangeEnd);
}

void
SspEngine::armFor(os::Process &proc)
{
    // Derive the tracked virtual range from the process's NVM VMAs.
    Addr lo = invalidAddr;
    Addr hi = 0;
    proc.aspace.forEach([&](const os::Vma &vma) {
        if (!vma.nvm)
            return;
        lo = std::min(lo, vma.range.start());
        hi = std::max(hi, vma.range.end());
    });
    if (lo >= hi) {
        for (CpuId c = 0; c < kernel.numCores(); ++c)
            kernel.core(c).msrs().write(cpu::MsrId::sspEnable, 0);
        armed = false;
        return;
    }
    for (CpuId c = 0; c < kernel.numCores(); ++c) {
        auto &msrs = kernel.core(c).msrs();
        msrs.write(cpu::MsrId::sspNvmRangeStart, lo);
        msrs.write(cpu::MsrId::sspNvmRangeEnd, hi);
        msrs.write(cpu::MsrId::sspEnable, 1);
    }
    armed = true;
    armedPid = proc.pid;
}

void
SspEngine::onFaseStart(os::Process &proc)
{
    armFor(proc);
    // checkpoint_start enables the custom translation hardware; every
    // TLB is shot down so tracked pages refill with the SSP extension
    // fields populated on whichever core touches them.
    if (armed)
        kernel.shootdownFlushAll();
}

void
SspEngine::onFaseEnd(os::Process &proc)
{
    (void)proc;
    // checkpoint_end: commit the open interval, then disarm.
    commitInterval();
    for (CpuId c = 0; c < kernel.numCores(); ++c)
        kernel.core(c).msrs().write(cpu::MsrId::sspEnable, 0);
    armed = false;
}

void
SspEngine::onTlbFill(cpu::TlbEntry &entry, const cpu::Pte &leaf)
{
    if (!leaf.nvmBacked() ||
        !inTrackedRange(entry.pid, entry.vpn << pageShift)) {
        return;
    }
    entry.sspTracked = true;

    const Addr frame = leaf.frameAddr();
    Addr shadow = sspCache.shadowOf(frame);
    if (shadow == 0) {
        // First touch: allocate the supplementary physical page in the
        // page-allocation routine and record the pair in the SSP cache.
        shadow = kernel.nvmAllocator().tryAlloc();
        if (shadow == invalidAddr) {
            // NVM zone exhausted: the page runs untracked this FASE
            // (writes go straight to the current frame, exactly the
            // semantics of SSP having no shadow to give it).
            entry.sspTracked = false;
            ++statGroup.lazyScalar(
                shadowAllocFailures, "shadowAllocFailures",
                "pages left untracked for lack of a shadow frame");
            return;
        }
        ++shadowAllocs;
        SspCacheEntry meta;
        meta.magic = SspCacheEntry::magicValue;
        meta.flags = SspCacheEntry::flagAllocated;
        meta.origFrame = frame;
        meta.shadowFrame = shadow;
        meta.vpn = entry.vpn;
        meta.pid = entry.pid;
        sspCache.write(frame, meta);
        entry.currentBits = 0;
    } else {
        // Hardware fill: fetch the bitmap fields from the SSP cache.
        const SspCacheEntry meta = sspCache.read(frame);
        entry.currentBits = meta.currentBits;
    }
    entry.shadowPfn = shadow >> pageShift;
    entry.updatedBits = 0;
}

void
SspEngine::onDataWrite(cpu::TlbEntry &entry, Addr vaddr,
                       std::uint64_t size)
{
    if (!entry.sspTracked)
        return;
    // Mark every covered line as updated; the cache controller routes
    // these lines to the non-current physical page.
    const unsigned first =
        static_cast<unsigned>((vaddr & (pageSize - 1)) >> lineShift);
    const unsigned last = static_cast<unsigned>(
        ((vaddr + size - 1) & (pageSize - 1)) >> lineShift);
    for (unsigned i = first; i <= last && i < linesPerPage; ++i)
        entry.updatedBits = setBit(entry.updatedBits, i);
}

void
SspEngine::onTlbEvict(const cpu::TlbEntry &entry)
{
    if (!entry.sspTracked || entry.updatedBits == 0)
        return;
    // Translation hardware generates a memory request to spill the
    // bitmap and mark the entry TLB-evicted.
    ++bitmapSpills;
    sspCache.mergeBits(entry.pfn << pageShift, entry.updatedBits,
                       /*mark_evicted=*/true);
}

void
SspEngine::commitInterval()
{
    KINDLE_PROF_SCOPE(ssp);
    auto &sim = kernel.simulation();
    const Tick t0 = sim.now();
    ++intervalCommits;

    auto &kmem = kernel.kmem();

    // Metadata inspection: checkpoint_end walks the SSP cache entries
    // of every tracked page to decide what must be written back, and
    // flushes each inspected metadata line so the SSP cache itself is
    // durable at the commit point (the paper: "the number of metadata
    // inspections and clwb calls ... reduce with a wider consistency
    // interval").  The walk runs in frame order, so the metadata
    // region streams in address order.
    sspCache.forEachTracked([&](Addr frame) {
        const Addr entry_addr = sspCache.entryAddr(frame);
        // The kernel-initiated inspection streams the metadata region
        // non-temporally (it must observe device state, not possibly
        // stale cached copies), then writes back whatever the caches
        // still hold for the line.
        kmem.chargeUncachedRead(entry_addr);
        kmem.clwb(entry_addr);
        ++metadataInspections;
    });

    std::uint64_t flushed = 0;
    for (CpuId c = 0; c < kernel.numCores(); ++c) {
        kernel.core(c).tlb().forEachValid(
            [&](cpu::TlbEntry &entry) {
                if (!entry.sspTracked || entry.updatedBits == 0)
                    return;
                const Addr page = entry.pfn << pageShift;
                ++bitmapSpills;
                sspCache.mergeBits(page, entry.updatedBits,
                                   /*mark_evicted=*/false);
                // clwb every modified data line.
                for (unsigned i = 0; i < linesPerPage; ++i) {
                    if (bit(entry.updatedBits, i)) {
                        kmem.clwb(page + i * lineSize);
                        ++flushed;
                    }
                }
                entry.currentBits ^= entry.updatedBits;
                entry.updatedBits = 0;
            });
    }
    kmem.sfence();

    // Durable commit record at the tail of the SSP cache region.
    const os::NvmLayout &layout = kernel.nvmLayout();
    const Addr commit_addr =
        layout.sspCache + layout.sspCacheBytes - lineSize;
    struct CommitRecord
    {
        std::uint64_t seq;
        std::uint64_t when;
        std::uint8_t pad[48];
    } rec{++commitSeq, sim.now(), {}};
    kmem.writeBufDurable(commit_addr, &rec, sizeof(rec));

    linesFlushed += static_cast<double>(flushed);
    commitTicks += static_cast<double>(sim.now() - t0);
    KINDLE_TRACE_INSTANT_ARGS(ssp, "ssp.commit", "flushed={}", flushed);
}

void
SspEngine::consolidate()
{
    KINDLE_PROF_SCOPE(ssp);
    auto &sim = kernel.simulation();
    const Tick t0 = sim.now();
    ++consolidations;

    // Every entry marked evicted, in frame order.
    sspCache.forEachEvicted([&](Addr frame) {
        const SspCacheEntry meta = sspCache.read(frame);
        if (!meta.evicted())
            return;
        const unsigned diverged = popCount(meta.pendingBits);
        if (diverged > 0) {
            // Merge: stream the diverged lines from the latest copy to
            // the stale copy so the pair converges.
            const std::uint64_t bytes =
                std::uint64_t(diverged) * lineSize;
            auto &mem = kernel.kmem().mem();
            sim.bump(mem.submit(
                {mem::MemCmd::bulkRead, meta.shadowFrame, bytes},
                sim.now()));
            sim.bump(mem.submit(
                {mem::MemCmd::bulkWrite, meta.origFrame, bytes},
                sim.now()));
        }
        sspCache.clearEvicted(frame);
        ++pagesConsolidated;
    });

    consolidateTicks += static_cast<double>(sim.now() - t0);
}

void
SspEngine::onFrameUnmapped(os::Process &proc, Addr vaddr, Addr frame,
                           bool nvm)
{
    (void)proc;
    (void)vaddr;
    if (!nvm)
        return;
    const Addr shadow = sspCache.shadowOf(frame);
    if (shadow == 0)
        return;
    // Release the supplementary page and retire the metadata entry.
    kernel.nvmAllocator().free(shadow);
    SspCacheEntry dead;
    sspCache.write(frame, dead);
    sspCache.clearEvicted(frame);
}

} // namespace kindle::ssp
