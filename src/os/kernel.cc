#include "os/kernel.hh"

#include <algorithm>

#include "base/intmath.hh"
#include "base/logging.hh"
#include "base/str.hh"
#include "os/bad_frames.hh"
#include "os/reclaim.hh"
#include "trace/profiler.hh"
#include "trace/trace.hh"

namespace kindle::os
{

Kernel::TlbIpiEvent::TlbIpiEvent(Kernel &kernel_arg, CpuId cpu_arg)
    : Event(csprintf("kernel.tlbIpi.cpu{}", cpu_arg)),
      kernel(kernel_arg),
      cpu(cpu_arg)
{}

void
Kernel::TlbIpiEvent::process()
{
    // The pending batch stays attached to the doorbell until the
    // target actually services it: an unresponsive core leaves the
    // requests in place for the initiator's retry to redeliver.
    kernel.deliverTlbIpi(cpu);
}

Kernel::Kernel(const KernelParams &params, sim::Simulation &sim_arg,
               mem::HybridMemory &memory_arg,
               cache::Hierarchy &caches_arg,
               std::vector<cpu::Core *> cores)
    : _params(params),
      sim(sim_arg),
      memory(memory_arg),
      caches(caches_arg),
      cores_(std::move(cores)),
      kernelMem(sim_arg, memory_arg, caches_arg),
      // The BIOS map, not the memory model, tells the OS where NVM
      // lives (the e820 handoff).
      layout(NvmLayout::standard(
          memory_arg.e820().regionOf(mem::E820Type::pmem),
          params.nvmLayout)),
      statGroup("kernel", "gemOS-like kernel"),
      syscalls(statGroup.addScalar("syscalls", "system calls serviced")),
      contextSwitches(statGroup.addScalar("contextSwitches",
                                          "scheduler switches")),
      faultsServiced(statGroup.addScalar("pageFaults",
                                         "demand-paging faults")),
      opsExecuted(statGroup.addScalar("opsExecuted",
                                      "program ops dispatched")),
      nvmFramesRetired(statGroup.addScalar(
          "nvmFramesRetired", "NVM frames durably retired as bad")),
      nvmPagesMigrated(statGroup.addScalar(
          "nvmPagesMigrated", "live pages rescued off retired frames")),
      nvmDegradedAllocs(statGroup.addScalar(
          "nvmDegradedAllocs",
          "MAP_NVM allocations degraded to DRAM (zone low/exhausted)"))
{
    kindle_assert(!cores_.empty(), "kernel needs at least one core");

    slotWords.resize(divCeil(layout.procSlots, 64), 0);

    const fault::PressurePlan &pp = _params.pressure;
    allocRng = Random(pp.seed);

    // DRAM frames: everything above the kernel-image reserve (a
    // pressure plan may cap the zone to force exhaustion).
    AddrRange dram_zone(
        roundUp(params.kernelReserveBytes, pageSize),
        memory.dramRange().end());
    if (pp.dramZoneFrames != 0 &&
        pp.dramZoneFrames * pageSize < dram_zone.size()) {
        dram_zone = AddrRange::withSize(dram_zone.start(),
                                        pp.dramZoneFrames * pageSize);
    }
    dramAlloc = std::make_unique<FrameAllocator>("dramAlloc", dram_zone,
                                                 kernelMem);

    // NVM frames: the user pool carved by the layout, with the
    // allocation bitmap persisted in NVM.  A pressure cap shortens the
    // zone (and therefore the bitmap prefix recovery adopts) the same
    // way on every boot of the same configuration.
    std::uint64_t nvm_bytes = roundDown(layout.userPoolBytes, pageSize);
    if (pp.nvmZoneFrames != 0 &&
        pp.nvmZoneFrames * pageSize < nvm_bytes) {
        nvm_bytes = pp.nvmZoneFrames * pageSize;
    }
    const AddrRange nvm_zone =
        AddrRange::withSize(layout.userPool, nvm_bytes);
    nvmAlloc = std::make_unique<FrameAllocator>(
        "nvmAlloc", nvm_zone, kernelMem, layout.allocBitmap);

    // The bad-frame table is adopted from durable media before any
    // frame can be handed out: retirement is forever, crash or not.
    badFrames_ = std::make_unique<BadFrameTable>(
        layout.nvm, kernelMem, layout.badFrameBitmap);
    badFrames_->loadFromNvm();
    nvmAlloc->setBadFrames(badFrames_.get());

    FrameAllocator &table_zone =
        params.ptInNvm ? *nvmAlloc : *dramAlloc;
    ptMgr = std::make_unique<PageTableManager>(kernelMem, table_zone);

    cpus.resize(cores_.size());
    for (CpuId c = 0; c < cores_.size(); ++c) {
        cores_[c]->setFaultHandler(this);
        cpus[c].ipi = std::make_unique<TlbIpiEvent>(*this, c);
    }

    coreFaultArmed_ = _params.coreFaults.enabled();
    pendingCoreFaults = _params.coreFaults.faults;
    if (coreFaultArmed_) {
        for (const fault::CoreFault &f : pendingCoreFaults) {
            kindle_assert(f.cpu < cores_.size(),
                          "core fault targets core {} of {}", f.cpu,
                          cores_.size());
            kindle_assert(f.atTick != 0 || f.atNthIpi != 0,
                          "core fault with no trigger armed");
        }
    }

    if (cores_.size() > 1) {
        tlbShootdownsSent = &statGroup.addScalar(
            "tlbShootdownsSent", "cross-core TLB shootdown IPIs sent");
        tlbShootdownIpis = &statGroup.addScalar(
            "tlbShootdownIpis", "shootdown IPI deliveries serviced");
        migrations = &statGroup.addScalar(
            "migrations", "processes migrated between cores");
    }

    statGroup.addChild(dramAlloc->stats());
    statGroup.addChild(nvmAlloc->stats());
    statGroup.addChild(badFrames_->stats());
    statGroup.addChild(ptMgr->stats());

    if (pp.enabled()) {
        // Watermarks default to 1/16th of the zone (low) and double
        // that (high), floored so tiny test zones still get a band;
        // only the NVM zone's may be set by the plan.
        const auto arm = [](FrameAllocator &alloc, std::uint64_t lo,
                            std::uint64_t hi) {
            const std::uint64_t frames = alloc.totalFrames();
            if (lo == 0)
                lo = std::max<std::uint64_t>(8, frames / 16);
            if (hi == 0)
                hi = std::max<std::uint64_t>(2 * lo, frames / 8);
            hi = std::min(hi, frames);
            lo = std::min(lo, hi);
            alloc.setWatermarks(lo, hi);
        };
        arm(*dramAlloc, 0, 0);
        arm(*nvmAlloc, pp.nvmLowWatermark, pp.nvmHighWatermark);

        reclaim_ = std::make_unique<ReclaimEngine>(
            *this, pp.reclaimCheckpointMinGap);
        statGroup.addChild(reclaim_->stats());
        reclaim_->start();

        // Page-table frames come from the same zones; on exhaustion
        // give direct reclaim and the OOM killer one shot at freeing
        // a table frame before the allocator's fatal stands.
        ptMgr->setExhaustionHandler([this] {
            if (reclaim_)
                reclaim_->emergencyPass();
            if (_params.pressure.oomEnabled)
                oomKill(nullptr);
        });
    }
}

Kernel::~Kernel()
{
    for (cpu::Core *core : cores_)
        core->setFaultHandler(nullptr);
    // The per-core IPI events deschedule themselves on destruction
    // (crash can tear the kernel down with a shootdown in flight).
}

void
Kernel::addListener(OsEventListener *listener)
{
    listeners.push_back(listener);
}

void
Kernel::removeListener(OsEventListener *listener)
{
    listeners.erase(
        std::remove(listeners.begin(), listeners.end(), listener),
        listeners.end());
}

void
Kernel::setPtWritePolicy(PtWritePolicy *policy)
{
    ptMgr->setWritePolicy(policy);
}

unsigned
Kernel::allocSlot()
{
    // Lowest free bit, exactly as the historical 32-bit mask scan
    // chose it — but word-granular, so a thousand live tenants cost a
    // handful of word probes instead of a per-slot loop.
    const unsigned words = static_cast<unsigned>(slotWords.size());
    for (unsigned w = slotSearchHint; w < words; ++w) {
        const std::uint64_t free_bits = ~slotWords[w];
        if (free_bits == 0)
            continue;
        const unsigned bit =
            static_cast<unsigned>(countTrailingZeros(free_bits));
        const unsigned slot = w * 64 + bit;
        if (slot >= layout.procSlots)
            break;
        slotWords[w] |= (std::uint64_t(1) << bit);
        slotSearchHint = w;
        return slot;
    }
    kindle_fatal("out of saved-state slots ({} processes)",
                 layout.procSlots);
}

void
Kernel::markSlotUsed(unsigned slot)
{
    kindle_assert(slot < layout.procSlots, "slot {} out of range",
                  slot);
    slotWords[slot / 64] |= (std::uint64_t(1) << (slot % 64));
}

void
Kernel::markSlotFree(unsigned slot)
{
    kindle_assert(slot < layout.procSlots, "slot {} out of range",
                  slot);
    slotWords[slot / 64] &= ~(std::uint64_t(1) << (slot % 64));
    slotSearchHint = std::min(slotSearchHint, slot / 64);
}

Pid
Kernel::spawn(std::unique_ptr<cpu::OpStream> program, std::string name)
{
    Process &proc = spawnShell(std::move(name), allocSlot());
    proc.program = std::move(program);
    return proc.pid;
}

Process &
Kernel::spawnShell(std::string name, unsigned slot, bool create_pt)
{
    auto proc =
        std::make_unique<Process>(nextPid++, std::move(name), slot);
    markSlotUsed(slot);
    if (create_pt)
        proc->ptRoot = ptMgr->newRoot();
    proc->state = ProcState::ready;
    Process &ref = *proc;
    procs.push_back(std::move(proc));
    enqueue(ref, placementFor(ref));
    for (auto *l : listeners)
        l->onProcessCreated(ref);
    return ref;
}

Process *
Kernel::findProcess(Pid pid)
{
    const auto it = std::lower_bound(
        procs.begin(), procs.end(), pid,
        [](const std::unique_ptr<Process> &p, Pid want) {
            return p->pid < want;
        });
    return it != procs.end() && (*it)->pid == pid ? it->get() : nullptr;
}

const cpu::CpuState &
Kernel::contextOf(const Process &proc) const
{
    if (proc.state == ProcState::running) {
        for (CpuId c = 0; c < cores_.size(); ++c)
            if (cpus[c].running == &proc)
                return cores_[c]->state();
    }
    return proc.context;
}

bool
Kernel::setAffinity(Process &proc, int cpu)
{
    kindle_assert(cpu < static_cast<int>(cores_.size()),
                  "pinning pid {} to nonexistent core {}", proc.pid,
                  cpu);
    if (cpu >= 0 && !cpus[static_cast<CpuId>(cpu)].online) {
        // A dead core can never run anything: refuse the pin and
        // leave the previous affinity in force.
        warn("pid {}: setAffinity to offlined core {} refused",
             proc.pid, cpu);
        return false;
    }
    proc.pinnedCpu = cpu;
    return true;
}

void
Kernel::makeReady(Process &proc)
{
    kindle_assert(proc.state != ProcState::running,
                  "makeReady on the running process");
    proc.state = ProcState::ready;
    enqueue(proc, placementFor(proc));
}

CpuId
Kernel::placementFor(const Process &proc) const
{
    if (proc.pinnedCpu >= 0 &&
        cpus[static_cast<CpuId>(proc.pinnedCpu)].online) {
        return static_cast<CpuId>(proc.pinnedCpu);
    }
    // Least-loaded online core, ties to the lowest id (on one core:
    // core 0).
    CpuId best = 0;
    std::size_t best_load = ~std::size_t(0);
    for (CpuId c = 0; c < cores_.size(); ++c) {
        const CpuSlot &slot = cpus[c];
        if (!slot.online)
            continue;
        const std::size_t load =
            slot.runq.size() +
            (slot.running &&
                     slot.running->state == ProcState::running
                 ? 1
                 : 0);
        if (load < best_load) {
            best_load = load;
            best = c;
        }
    }
    return best;
}

void
Kernel::enqueue(Process &proc, CpuId cpu)
{
    if (proc.queued)
        return;
    proc.queued = true;
    proc.lastCpu = cpu;
    cpus.at(cpu).runq.push_back(&proc);
}

Process *
Kernel::popRunnable(CpuId cpu)
{
    auto &q = cpus[cpu].runq;
    while (!q.empty()) {
        Process *p = q.front();
        q.pop_front();
        p->queued = false;
        if (p->state != ProcState::ready || !p->program)
            continue;  // zombie or program-less shell: drop
        if (p->pinnedCpu >= 0 &&
            static_cast<CpuId>(p->pinnedCpu) != cpu) {
            // Pinned after placement: migrate to the pinned core.
            if (migrations)
                ++*migrations;
            enqueue(*p, static_cast<CpuId>(p->pinnedCpu));
            continue;
        }
        return p;
    }
    return nullptr;
}

Process *
Kernel::stealWork(CpuId thief)
{
    if (cores_.size() == 1)
        return nullptr;
    // Steal from the most loaded runqueue (counting only runnable,
    // unpinned entries), ties to the lowest core id.  A process that
    // is still the donor's `running` occupant — re-queued at its own
    // slice end — is not stealable: the donor resumes it next epoch
    // with warm caches, and stealing it just ping-pongs a lone
    // process between idle cores.
    CpuId donor = thief;
    std::size_t best = 0;
    for (CpuId c = 0; c < cores_.size(); ++c) {
        if (c == thief || !cpus[c].online)
            continue;
        std::size_t count = 0;
        for (const Process *p : cpus[c].runq) {
            if (p->state == ProcState::ready && p->program &&
                p->pinnedCpu < 0 && p != cpus[c].running) {
                ++count;
            }
        }
        if (count > best) {
            best = count;
            donor = c;
        }
    }
    if (best == 0)
        return nullptr;
    auto &q = cpus[donor].runq;
    for (auto it = q.begin(); it != q.end(); ++it) {
        Process *p = *it;
        if (p->state == ProcState::ready && p->program &&
            p->pinnedCpu < 0 && p != cpus[donor].running) {
            q.erase(it);
            p->queued = false;
            p->lastCpu = thief;
            if (migrations)
                ++*migrations;
            KINDLE_TRACE_INSTANT_ARGS(sched, "sched.steal",
                                      "cpu={} pid={} from=cpu{}", thief,
                                      p->pid, donor);
            return p;
        }
    }
    return nullptr;
}

Process *
Kernel::pickNext(CpuId cpu)
{
    Process *p = popRunnable(cpu);
    if (!p)
        p = stealWork(cpu);
    return p;
}

void
Kernel::switchTo(CpuId cpu, Process *proc)
{
    Process *&cur = cpus[cpu].running;
    if (cur == proc) {
        // Same process re-picked at timeslice end: no context switch,
        // just keep running.
        if (proc && proc->state == ProcState::ready)
            proc->state = ProcState::running;
        return;
    }
    ++contextSwitches;
    Process *old = cur;
    if (old && old->state == ProcState::running) {
        old->context = cores_[cpu]->state();
        old->state = ProcState::ready;
    }
    // A migrated process must not stay resident on its former core:
    // that core would otherwise save stale register state over the
    // live context when it next switches.
    for (CpuId c = 0; c < cores_.size(); ++c)
        if (c != cpu && cpus[c].running == proc)
            cpus[c].running = nullptr;
    for (auto *l : listeners)
        l->onContextSwitch(old, proc);
    sim.bump(_params.contextSwitchCost);
    cur = proc;
    if (proc) {
        proc->state = ProcState::running;
        proc->lastCpu = cpu;
        cores_[cpu]->setContext(proc->pid, proc->ptRoot);
        cores_[cpu]->setState(proc->context);
    }
}

void
Kernel::run()
{
    runUntil(maxTick);
}

void
Kernel::runUntil(Tick deadline)
{
    const unsigned n = numCores();
    while (sim.now() < deadline) {
        // One scheduling epoch: every core starts at the same instant
        // and runs one timeslice of its runqueue; the global clock
        // then advances to the latest per-core finish time.  On one
        // core the warps are no-ops and this is the classic loop.
        // The sched probe covers the epoch's own work (watchdog,
        // reaping, picking and switching); runSlice's op loop is
        // charged to exec, and nested probes subtract themselves.
        KINDLE_PROF_SCOPE(sched);
        if (coreFaultArmed_)
            watchdogPass();
        if (zombieCount > 0)
            reapExited();
        const Tick epoch_start = sim.now();
        Tick epoch_end = epoch_start;
        bool ran_any = false;
        for (CpuId c = 0; c < n; ++c) {
            if (!cpus[c].online)
                continue;
            if (n > 1)
                sim.warpTo(epoch_start);
            if (coreFaultArmed_ &&
                sim.now() < cpus[c].stalledUntil) {
                // Transiently stalled: the core freezes through this
                // epoch.  Its queued work stays put (the occupant
                // resumes once the stall clears), but the machine
                // must keep advancing toward the stall's end.
                if (cpus[c].running || !cpus[c].runq.empty()) {
                    ran_any = true;
                    epoch_end = std::max(
                        epoch_end,
                        std::min(cpus[c].stalledUntil,
                                 epoch_start + _params.timeslice));
                }
                continue;
            }
            Process *proc = pickNext(c);
            if (!proc) {
                epoch_end = std::max(epoch_end, sim.now());
                continue;
            }
            ran_any = true;
            activeCpu_ = c;
            caches.setInitiator(c);
            switchTo(c, proc);
            const Tick slice_end =
                std::min(deadline, sim.now() + _params.timeslice);
            runSlice(c, *proc, slice_end);
            epoch_end = std::max(epoch_end, sim.now());
        }
        if (n > 1)
            sim.warpTo(epoch_end);
        if (!ran_any)
            return;
    }
}

void
Kernel::runSlice(CpuId cpu, Process &proc, Tick slice_end)
{
    KINDLE_PROF_SCOPE(exec);
    cpu::Op op;
    while (sim.now() < slice_end &&
           proc.state == ProcState::running) {
        sim.service();
        if (coreFaultArmed_ && evalCoreFaults(cpu)) {
            CpuSlot &slot = cpus[cpu];
            if (slot.failStopped) {
                // The core dies holding the process: its live
                // register state is gone.  The occupant stays
                // `running` so the watchdog's offline pass kills it
                // (crash-consistently) rather than rescheduling a
                // context that no longer exists.
                return;
            }
            if (sim.now() < slot.stalledUntil) {
                // Frozen mid-slice: time passes, nothing retires.
                sim.bump(slot.stalledUntil - sim.now());
                continue;
            }
        }
        if (!proc.program || !proc.program->next(op)) {
            exitProcess(proc);
            return;
        }
        ++opsExecuted;
        if (!dispatch(cpu, proc, op))
            return;
    }
    if (proc.state == ProcState::running) {
        proc.context = cores_[cpu]->state();
        proc.state = ProcState::ready;
        enqueue(proc, cpu);
    }
}

bool
Kernel::dispatch(CpuId cpu, Process &proc, const cpu::Op &op)
{
    cpu::Core &core = *cores_[cpu];
    using Kind = cpu::Op::Kind;
    switch (op.kind) {
      case Kind::read:
      case Kind::write: {
        const bool ok = core.memAccess(op.kind == Kind::write,
                                       op.addr, op.size);
        if (!ok) {
            warn("pid {}: segfault at {}; killing process", proc.pid,
                 op.addr);
            exitProcess(proc);
            return false;
        }
        return true;
      }

      case Kind::compute:
        core.compute(op.size);
        return true;

      case Kind::mmap: {
        ++syscalls;
        sim.bump(_params.syscallEntryCost);
        const Addr result = sysMmap(proc, op.addr, op.size, op.flags);
        proc.program->onSyscallResult(result);
        return true;
      }

      case Kind::munmap:
        ++syscalls;
        sim.bump(_params.syscallEntryCost);
        sysMunmap(proc, op.addr, op.size);
        return true;

      case Kind::mremap: {
        ++syscalls;
        sim.bump(_params.syscallEntryCost);
        // For mremap ops the flags field carries the new size in
        // pages (the Op struct has no second 64-bit size field).
        const Addr result =
            sysMremap(proc, op.addr, op.size,
                      std::uint64_t(op.flags) << pageShift);
        proc.program->onSyscallResult(result);
        return true;
      }

      case Kind::mprotect:
        ++syscalls;
        sim.bump(_params.syscallEntryCost);
        sysMprotect(proc, op.addr, op.size, op.flags);
        return true;

      case Kind::faseStart:
        proc.faseActive = true;
        for (auto *l : listeners)
            l->onFaseStart(proc);
        return true;

      case Kind::faseEnd:
        proc.faseActive = false;
        for (auto *l : listeners)
            l->onFaseEnd(proc);
        return true;

      case Kind::exit:
        exitProcess(proc);
        return false;
    }
    kindle_panic("unhandled op kind");
}

Addr
Kernel::sysMmap(Process &proc, Addr hint, std::uint64_t length,
                std::uint32_t flags)
{
    length = roundUp(length, pageSize);
    kindle_assert(length > 0, "mmap of zero bytes");

    Addr start;
    if (flags & cpu::mapFixed) {
        start = roundDown(hint, pageSize);
        // A fixed mapping replaces whatever was there.
        if (proc.aspace.find(start) ||
            proc.aspace.find(start + length - 1)) {
            sysMunmap(proc, start, length);
        }
    } else {
        start = proc.aspace.findFreeRegion(hint, length);
    }

    Vma vma;
    vma.range = AddrRange::withSize(start, length);
    vma.prot = cpu::protRead | cpu::protWrite;
    vma.nvm = (flags & cpu::mapNvm) != 0;
    proc.aspace.insert(vma);
    KINDLE_TRACE_INSTANT_ARGS(vma, "os.mmap", "pid={} [{}, {}) nvm={}",
                              proc.pid, start, start + length, vma.nvm);
    for (auto *l : listeners)
        l->onVmaAdded(proc, vma);
    return start;
}

void
Kernel::unmapPages(Process &proc, const Vma &piece)
{
    // Release every mapped frame in the removed subrange and clear its
    // PTE.  Walk page by page; the per-page software walk through the
    // cache hierarchy is exactly the cost the paper attributes to VMA
    // modifications.
    for (Addr va = piece.range.start(); va < piece.range.end();
         va += pageSize) {
        const auto old = ptMgr->unmap(proc.ptRoot, va);
        if (!old)
            continue;
        Addr frame = old->frameAddr();
        const bool nvm = old->nvmBacked();
        if (old->hsccRemapped()) {
            // The PTE points at a DRAM cache page; the backing NVM
            // frame is owned by whoever manages the remapping.
            Addr home = invalidAddr;
            for (auto *l : listeners) {
                if (l->resolveRemappedFrame(proc, va, frame, &home))
                    break;
            }
            kindle_assert(home != invalidAddr,
                          "remapped PTE with no resolver attached");
            frame = home;
        }
        (nvm ? *nvmAlloc : *dramAlloc).free(frame);
        if (proc.residentPages > 0)
            --proc.residentPages;
        for (auto *l : listeners)
            l->onFrameUnmapped(proc, va, frame, nvm);
    }
    invalidateTlbRange(proc.pid, piece.range);
}

void
Kernel::sysMunmap(Process &proc, Addr addr, std::uint64_t length)
{
    length = roundUp(length, pageSize);
    const AddrRange range(roundDown(addr, pageSize),
                          roundDown(addr, pageSize) + length);
    for (auto *l : listeners)
        l->onVmaChanging(proc);
    auto removed = proc.aspace.removeRange(range);
    for (const Vma &piece : removed) {
        unmapPages(proc, piece);
        for (auto *l : listeners)
            l->onVmaRemoved(proc, piece);
    }
}

Addr
Kernel::sysMremap(Process &proc, Addr old_addr,
                  std::uint64_t old_length, std::uint64_t new_length)
{
    old_length = roundUp(old_length, pageSize);
    new_length = roundUp(new_length, pageSize);
    Vma *vma = proc.aspace.find(old_addr);
    kindle_assert(vma && vma->range.start() == old_addr,
                  "mremap of a non-VMA address");

    if (new_length == old_length)
        return old_addr;

    if (new_length < old_length) {
        // Shrink: unmap the tail.
        sysMunmap(proc, old_addr + new_length,
                  old_length - new_length);
        return old_addr;
    }

    // Grow: in place if the next bytes are free, otherwise move.
    const AddrRange grown =
        AddrRange::withSize(old_addr, new_length);
    const Addr after = old_addr + old_length;
    const bool can_extend =
        proc.aspace.find(after) == nullptr &&
        proc.aspace.find(grown.end() - 1) == nullptr;
    if (can_extend) {
        const Vma old_vma = *vma;
        proc.aspace.removeRange(old_vma.range);
        Vma extended = old_vma;
        extended.range = grown;
        proc.aspace.insert(extended);
        for (auto *l : listeners) {
            l->onVmaRemoved(proc, old_vma);
            l->onVmaAdded(proc, extended);
        }
        return old_addr;
    }

    // Move: remap mapped frames to the new region, then drop the old
    // VMA (frames travel, so no free/realloc of backing pages).
    const Vma old_vma = *vma;
    const Addr new_start =
        proc.aspace.findFreeRegion(0, new_length);
    Vma moved = old_vma;
    moved.range = AddrRange::withSize(new_start, new_length);
    for (Addr va = old_vma.range.start(); va < old_vma.range.end();
         va += pageSize) {
        const auto old = ptMgr->unmap(proc.ptRoot, va);
        if (!old)
            continue;
        const Addr nva = new_start + (va - old_vma.range.start());
        for (auto *l : listeners) {
            l->onFrameUnmapped(proc, va, old->frameAddr(),
                               old->nvmBacked());
        }
        ptMgr->map(proc.ptRoot, nva, old->frameAddr(),
                   old->writable(), old->nvmBacked());
        for (auto *l : listeners) {
            l->onFrameMapped(proc, nva, old->frameAddr(),
                             old->nvmBacked());
        }
    }
    invalidateTlbRange(proc.pid, old_vma.range);
    proc.aspace.removeRange(old_vma.range);
    proc.aspace.insert(moved);
    for (auto *l : listeners) {
        l->onVmaRemoved(proc, old_vma);
        l->onVmaAdded(proc, moved);
    }
    return new_start;
}

void
Kernel::sysMprotect(Process &proc, Addr addr, std::uint64_t length,
                    std::uint32_t prot)
{
    length = roundUp(length, pageSize);
    const AddrRange range(roundDown(addr, pageSize),
                          roundDown(addr, pageSize) + length);
    for (auto *l : listeners)
        l->onVmaChanging(proc);
    auto affected = proc.aspace.protectRange(range, prot);
    for (const Vma &piece : affected) {
        // Update the writable bit of every mapped page.
        for (Addr va = piece.range.start(); va < piece.range.end();
             va += pageSize) {
            cpu::Pte leaf = ptMgr->readLeaf(proc.ptRoot, va);
            if (!leaf.present())
                continue;
            leaf.setWritable((prot & cpu::protWrite) != 0);
            ptMgr->writeLeaf(proc.ptRoot, va, leaf);
        }
        invalidateTlbRange(proc.pid, piece.range);
    }
}

void
Kernel::invalidateTlbRange(Pid pid, AddrRange range)
{
    const std::uint64_t pages = range.size() >> pageShift;
    constexpr std::uint64_t flushAllThreshold = 512;
    constexpr Tick invlpgCost = 100 * oneNs;
    cpu::Tlb &local = cores_[activeCpu_]->tlb();
    const bool flush_all = pages > flushAllThreshold;
    if (flush_all) {
        local.flushAll();
        sim.bump(2 * oneUs);
    } else {
        for (Addr va = range.start(); va < range.end(); va += pageSize)
            local.invalidate(pid, cpu::vpnOf(va));
        sim.bump(pages * invlpgCost);
    }
    shootdownRemote(pid, range, flush_all);
}

void
Kernel::shootdownRemote(Pid pid, AddrRange range, bool flush_all)
{
    if (cores_.size() == 1)
        return;
    std::vector<CpuId> targets;
    for (CpuId c = 0; c < cores_.size(); ++c) {
        if (c == activeCpu_ || !cpus[c].online)
            continue;
        TlbIpiEvent &ipi = *cpus[c].ipi;
        cpus[c].ipiAcked = false;
        ipi.pending.push_back({pid, range, flush_all});
        if (!ipi.scheduled()) {
            sim.eventq().schedule(&ipi,
                                  sim.now() + _params.ipiLatency);
        }
        ++*tlbShootdownsSent;
        targets.push_back(c);
    }
    if (targets.empty())
        return;  // every other core is offline: nothing to wait for
    // The initiator spins until every target acknowledges: wait out
    // the delivery latency, then service the queue so the handlers
    // run; each handler bumps its cost, serializing into the
    // initiator's wait — the classic shootdown stall.
    sim.bump(_params.ipiLatency);
    sim.service();
    if (!coreFaultArmed_)
        return;  // healthy machine: every target acked synchronously
    // Ack-timeout/retry protocol: an unresponsive target gets the IPI
    // resent ipiRetries times, each a full ack-timeout apart; a core
    // that never answers is escalated to the watchdog and declared
    // dead (its pending requests die with it — a dead TLB holds no
    // translations anyone can use).
    for (const CpuId c : targets) {
        unsigned resends = 0;
        while (!cpus[c].ipiAcked && cpus[c].online) {
            if (resends >= _params.ipiRetries) {
                ++statGroup.lazyScalar(ipiTimeoutsStat, "ipiTimeouts",
                                       "shootdown targets that never acked");
                warn("cpu{}: shootdown ack timeout after {} resends; "
                     "escalating to watchdog", c, resends);
                watchdogDeclareDead(c);
                break;
            }
            ++resends;
            ++statGroup.lazyScalar(ipiRetriesStat, "ipiRetries",
                                   "shootdown IPIs resent after ack timeout");
            KINDLE_CRASH_SITE("ipi.pre_retry");
            TlbIpiEvent &ipi = *cpus[c].ipi;
            if (!ipi.scheduled()) {
                sim.eventq().schedule(
                    &ipi, sim.now() + _params.ipiAckTimeout);
            }
            sim.bump(_params.ipiAckTimeout);
            sim.service();
        }
    }
}

void
Kernel::deliverTlbIpi(CpuId cpu)
{
    CpuSlot &slot = cpus[cpu];
    if (coreFaultArmed_) {
        ++slot.ipisReceived;
        evalCoreFaults(cpu);
        if (!coreResponsive(cpu)) {
            // The doorbell rang but nobody answered: the batch stays
            // pending for the initiator's retry (or dies with the
            // core when the watchdog offlines it).
            KINDLE_TRACE_INSTANT_ARGS(sched, "ipi.unanswered", "cpu={}",
                                      cpu);
            return;
        }
    }
    const std::vector<ShootdownRequest> reqs =
        std::move(slot.ipi->pending);
    slot.ipi->pending.clear();
    slot.ipiAcked = true;
    cpu::Tlb &tlb = cores_[cpu]->tlb();
    for (const ShootdownRequest &req : reqs) {
        if (req.flushAll) {
            tlb.flushAll();
            continue;
        }
        for (Addr va = req.range.start(); va < req.range.end();
             va += pageSize) {
            tlb.invalidate(req.pid, cpu::vpnOf(va));
        }
    }
    ++*tlbShootdownIpis;
    sim.bump(_params.ipiHandlerCost);
}

bool
Kernel::evalCoreFaults(CpuId cpu)
{
    if (!coreFaultArmed_ || !cpus[cpu].online)
        return false;
    bool fired = false;
    for (auto it = pendingCoreFaults.begin();
         it != pendingCoreFaults.end();) {
        const fault::CoreFault &f = *it;
        const bool tick_due = f.atTick != 0 && sim.now() >= f.atTick;
        const bool ipi_due = f.atNthIpi != 0 &&
                             cpus[cpu].ipisReceived >= f.atNthIpi;
        if (f.cpu != cpu || (!tick_due && !ipi_due)) {
            ++it;
            continue;
        }
        if (f.stallTicks > 0) {
            cpus[cpu].stalledUntil = std::max(
                cpus[cpu].stalledUntil, sim.now() + f.stallTicks);
            warn("cpu{}: transient stall injected for {} ticks", cpu,
                 f.stallTicks);
        } else {
            cpus[cpu].failStopped = true;
            warn("cpu{}: fail-stop fault injected", cpu);
        }
        KINDLE_TRACE_INSTANT_ARGS(sched, "core.fault",
                                  "cpu={} stall={}", cpu,
                                  f.stallTicks);
        fired = true;
        it = pendingCoreFaults.erase(it);
    }
    return fired;
}

bool
Kernel::coreResponsive(CpuId cpu) const
{
    const CpuSlot &slot = cpus[cpu];
    return slot.online && !slot.failStopped &&
           sim.now() >= slot.stalledUntil;
}

void
Kernel::watchdogPass()
{
    for (CpuId c = 0; c < cores_.size(); ++c) {
        if (!cpus[c].online)
            continue;
        evalCoreFaults(c);
        if (cpus[c].failStopped)
            watchdogDeclareDead(c);
    }
}

void
Kernel::watchdogDeclareDead(CpuId cpu)
{
    if (!cpus[cpu].online)
        return;
    cpus[cpu].failStopped = true;
    warn("watchdog: core {} declared dead", cpu);
    offlineCore(cpu);
}

void
Kernel::offlineCore(CpuId dead)
{
    CpuSlot &slot = cpus[dead];
    kindle_assert(slot.online, "offlining core {} twice", dead);
    CpuId survivor = dead;
    for (CpuId c = 0; c < cores_.size(); ++c) {
        if (c != dead && cpus[c].online) {
            survivor = c;
            break;
        }
    }
    if (survivor == dead)
        kindle_fatal("last online core {} died; machine halted", dead);

    // A crash here must replay as a clean offline on the next boot:
    // nothing durable has been touched yet, and everything below goes
    // through crash-consistent paths (exitProcess, shootdowns).
    KINDLE_CRASH_SITE("core.pre_offline");
    slot.online = false;
    ++statGroup.lazyScalar(coresOfflined, "coresOfflined",
                           "cores declared dead and hotplug-offlined");
    KINDLE_TRACE_INSTANT_ARGS(sched, "core.offline", "cpu={}",
                              dead);

    // The teardown itself executes on a surviving core.
    if (activeCpu_ == dead) {
        activeCpu_ = survivor;
        caches.setInitiator(survivor);
    }

    // The occupant that held the core when it died lost its live
    // register state mid-slice: kill it crash-consistently.  An
    // occupant parked in `ready` (its context was saved at the slice
    // boundary) is merely rescheduled below.
    Process *occ = slot.running;
    slot.running = nullptr;
    if (occ && occ->state == ProcState::running) {
        ++statGroup.lazyScalar(coreLossKills, "coreLossKills",
                               "processes killed with the core they occupied");
        warn("pid {} ({}) died with core {}", occ->pid, occ->name,
             dead);
        exitProcess(*occ);
    }

    // Pinned processes lose their affinity: a pin to a dead core is
    // unsatisfiable, and leaving it set would strand lazy migration.
    for (const auto &p : procs) {
        if (p->pinnedCpu == static_cast<int>(dead)) {
            p->pinnedCpu = -1;
            ++statGroup.lazyScalar(affinityBroken, "affinityBroken",
                                   "pins dropped because their core died");
        }
    }

    // Drain and re-place the dead runqueue on surviving cores.
    std::deque<Process *> drained = std::move(slot.runq);
    slot.runq.clear();
    for (Process *p : drained) {
        p->queued = false;
        if (p->state != ProcState::ready || !p->program)
            continue;
        if (migrations)
            ++*migrations;
        enqueue(*p, placementFor(*p));
    }

    // Flush the dead core's private caches through the directory so
    // no dirty line is stranded above the LLC, then drop its TLB.
    sim.bump(caches.offlineCore(dead, sim.now()));
    cores_[dead]->tlb().flushAll();

    // Remove the core from the IPI broadcast set: pending requests
    // die with it (its TLB holds nothing anyone can reach).
    slot.ipi->pending.clear();
    sim.eventq().deschedule(slot.ipi.get());
}

void
Kernel::shootdownPage(Pid pid, Addr vaddr)
{
    const Addr page = roundDown(vaddr, pageSize);
    // The local invalidation is free (matching the uniprocessor
    // retirement path); only remote delivery costs.
    cores_[activeCpu_]->tlb().invalidate(pid, cpu::vpnOf(page));
    shootdownRemote(pid, AddrRange(page, page + pageSize), false);
}

void
Kernel::shootdownFlushAll()
{
    cores_[activeCpu_]->tlb().flushAll();
    sim.bump(2 * oneUs);
    shootdownRemote(0, AddrRange(0, pageSize), true);
}

bool
Kernel::handlePageFault(cpu::Core &core, Addr vaddr, bool is_write)
{
    Process *proc = cpus[core.cpuId()].running;
    if (!proc) {
        // Direct-translate paths (tests, engines) fault without a
        // scheduled process; identify it by the core's loaded context.
        proc = findProcess(core.pid());
    }
    kindle_assert(proc != nullptr, "page fault with no process");
    ++faultsServiced;
    sim.bump(_params.pageFaultTrapCost);

    const Vma *vma = proc->aspace.find(vaddr);
    if (!vma)
        return false;
    if (is_write && !(vma->prot & cpu::protWrite))
        return false;
    if (!is_write && !(vma->prot & cpu::protRead))
        return false;

    const Addr page = roundDown(vaddr, pageSize);
    // The fault may race with a prior mapping (e.g. a mid-level hole
    // above an existing leaf cannot happen, but be defensive).
    cpu::Pte existing = ptMgr->readLeaf(proc->ptRoot, page);
    if (existing.present())
        return true;

    Addr frame = invalidAddr;
    bool frame_nvm = vma->nvm;
    if (vma->nvm) {
        // Graceful degradation: keep a reserve of NVM frames for
        // retirement migrations, and when the zone is low or empty
        // fall back to DRAM rather than killing the machine.  The
        // page loses durability (it is not entered in the mapping
        // list), which is the honest semantics of not having NVM to
        // put it on — the stat is the loud part.
        if (nvmAlloc->freeFrames() > _params.nvmReserveFrames)
            frame = nvmAlloc->tryAlloc();
        if (frame == invalidAddr) {
            frame = allocUserFrame(proc);
            frame_nvm = false;
            if (frame != invalidAddr) {
                ++nvmDegradedAllocs;
                KINDLE_TRACE_INSTANT_ARGS(
                    syscall, "fault.nvmDegraded",
                    "pid={} vaddr={} nvmFree={}", proc->pid, vaddr,
                    nvmAlloc->freeFrames());
            }
        }
    } else {
        frame = allocUserFrame(proc);
    }
    if (frame == invalidAddr) {
        // ENOMEM: surfaced to the dispatcher as a failed access — the
        // faulting process dies, the machine survives.
        KINDLE_TRACE_INSTANT_ARGS(syscall, "fault.enomem",
                                  "pid={} vaddr={}", proc->pid, vaddr);
        return false;
    }
    // Demand-zero the fresh frame (a streaming device write; NVM
    // frames pay NVM write bandwidth, a large part of the first-touch
    // cost on persistent-memory systems).
    sim.bump(memory.submit({mem::MemCmd::bulkWrite, frame, pageSize},
                           sim.now()));
    ptMgr->map(proc->ptRoot, page, frame,
               (vma->prot & cpu::protWrite) != 0, frame_nvm);
    ++proc->residentPages;
    for (auto *l : listeners)
        l->onFrameMapped(*proc, page, frame, frame_nvm);
    return true;
}

Addr
Kernel::allocUserFrame(Process *proc)
{
    const fault::PressurePlan &pp = _params.pressure;
    const unsigned tries = 1 + (pp.enabled() ? allocMaxRetries : 0);
    for (unsigned attempt = 0; attempt < tries; ++attempt) {
        if (attempt > 0) {
            ++statGroup.lazyScalar(allocRetries, "allocRetries",
                                   "frame allocations retried after backoff");
            sim.bump(allocRetryBackoff);
        }
        if (pp.allocFailRate > 0.0 &&
            allocRng.chance(pp.allocFailRate)) {
            // Injected transient failure (the software-visible face
            // of a refused allocation credit); the surrounding retry
            // loop is the robustness under test.
            ++statGroup.lazyScalar(allocFailuresInjected,
                                   "allocFailuresInjected",
                                   "transient allocation failures injected");
            continue;
        }
        const Addr frame = dramAlloc->tryAlloc();
        if (frame != invalidAddr)
            return frame;
        // Genuinely empty: one synchronous direct-reclaim pass, then
        // retry (the backoff models waiting out concurrent frees).
        if (reclaim_)
            reclaim_->emergencyPass();
    }
    if (pp.enabled() && pp.oomEnabled) {
        while (oomKill(proc)) {
            const Addr frame = dramAlloc->tryAlloc();
            if (frame != invalidAddr)
                return frame;
        }
    }
    ++statGroup.lazyScalar(enomemFaults, "enomemFaults",
                           "allocation failures surfaced as ENOMEM");
    return invalidAddr;
}

Process *
Kernel::oomKill(Process *requester)
{
    Process *victim = nullptr;
    for (const auto &p : procs) {
        if (p->state == ProcState::zombie || p.get() == requester)
            continue;
        // Pinned processes and program-less shells (recovery rigs,
        // kernel-side scaffolding) are exempt.
        if (p->pinnedCpu >= 0 || !p->program)
            continue;
        if (p->residentPages == 0)
            continue;  // killing it frees nothing
        if (!victim || p->residentPages > victim->residentPages ||
            (p->residentPages == victim->residentPages &&
             p->pid < victim->pid)) {
            victim = p.get();
        }
    }
    if (!victim)
        return nullptr;
    ++statGroup.lazyScalar(oomKills, "oomKills",
                           "processes killed by the OOM killer");
    statGroup.lazyScalar(oomPagesFreed, "oomPagesFreed",
                         "resident pages released by OOM kills") +=
        static_cast<double>(victim->residentPages);
    warn("oom: killing pid {} ({}, {} resident pages)", victim->pid,
         victim->name, victim->residentPages);
    KINDLE_TRACE_INSTANT_ARGS(vma, "oom.kill", "pid={} rss={}",
                              victim->pid, victim->residentPages);
    // exitProcess is the crash-consistent teardown: every durable
    // structure (mapping list, saved-state slot) is invalidated
    // through the listeners, so a crash here replays as a clean kill.
    KINDLE_CRASH_SITE("oom.pre_kill");
    exitProcess(*victim);
    return victim;
}

bool
Kernel::demotePage(Process &proc, Addr vaddr)
{
    const Addr page = roundDown(vaddr, pageSize);
    const cpu::Pte leaf = ptMgr->readLeaf(proc.ptRoot, page);
    if (!leaf.present() || leaf.nvmBacked() || leaf.hsccRemapped())
        return false;
    // Leave the retirement reserve alone: demotion is relief, not a
    // reason to strand a future retirement migration.
    if (nvmAlloc->freeFrames() <= _params.nvmReserveFrames)
        return false;
    const Addr repl = nvmAlloc->tryAlloc();
    if (repl == invalidAddr)
        return false;
    const Addr dram = leaf.frameAddr();
    // A crash here leaves an allocated-but-unmapped NVM frame, which
    // recovery's leak reclaim sweeps back to the free pool.
    KINDLE_CRASH_SITE("reclaim.pre_demote");
    kernelMem.copyPage(repl, dram, true);
    ptMgr->unmap(proc.ptRoot, page);
    for (auto *l : listeners)
        l->onFrameUnmapped(proc, page, dram, false);
    ptMgr->map(proc.ptRoot, page, repl, leaf.writable(), true);
    for (auto *l : listeners)
        l->onFrameMapped(proc, page, repl, true);
    shootdownPage(proc.pid, page);
    dramAlloc->free(dram);
    return true;
}

void
Kernel::retireNvmFrame(Addr frame, const char *reason)
{
    const Addr bad = roundDown(frame, pageSize);
    kindle_assert(layout.nvm.contains(bad),
                  "retiring non-NVM frame {}", bad);
    if (!badFrames_->retire(bad))
        return;  // already retired; migration already happened
    KINDLE_TRACE_SPAN_ARGS(vma, "os.retireFrame",
                           "frame={} reason={}", bad, reason);
    ++nvmFramesRetired;

    // Anything outside the user pool (metadata regions, PT frames in
    // the persistent scheme) cannot be migrated here; the durable bit
    // alone is the protection — recovery quarantines whatever durable
    // structure sat on it.
    if (!nvmAlloc->zone().contains(bad) || !nvmAlloc->isAllocated(bad)) {
        for (auto *l : listeners)
            l->onFrameRetired(nullptr, invalidAddr, bad, invalidAddr);
        return;
    }

    // Find the live mapping (if any) and rescue it.  hscc-remapped
    // leaves point at DRAM cache pages, never directly at NVM homes,
    // so a plain frame match is sufficient.
    struct Victim
    {
        Process *proc;
        Addr vaddr;
        bool writable;
    };
    std::vector<Victim> victims;
    for (const auto &p : procs) {
        if (p->state == ProcState::zombie || p->ptRoot == invalidAddr)
            continue;
        ptMgr->forEachLeaf(p->ptRoot,
                           [&](Addr va, cpu::Pte pte, Addr) {
                               if (pte.present() && pte.nvmBacked() &&
                                   !pte.hsccRemapped() &&
                                   pte.frameAddr() == bad) {
                                   victims.push_back(
                                       {p.get(), va, pte.writable()});
                               }
                           });
    }

    for (const Victim &v : victims) {
        // An earlier iteration may have killed this victim's owner
        // (no frame to rescue onto); its PTEs are gone with it.
        if (v.proc->state == ProcState::zombie)
            continue;
        // A fresh NVM frame if one exists (the reserve is exactly for
        // this), DRAM as the last resort.
        Addr repl = nvmAlloc->tryAlloc();
        bool repl_nvm = true;
        if (repl == invalidAddr) {
            repl = allocUserFrame(v.proc);
            repl_nvm = false;
            if (repl == invalidAddr) {
                // Nowhere to rescue the page: kill its owner rather
                // than the machine (the teardown is durable, so the
                // kill is crash-consistent like any other exit).
                warn("retire: no frame to rescue pid {} page {}; "
                     "killing process", v.proc->pid, v.vaddr);
                exitProcess(*v.proc);
                continue;
            }
            ++nvmDegradedAllocs;
        }
        // The copy reads through ECC (functional latest + correction);
        // an NVM destination lands durably.
        kernelMem.copyPage(repl, bad, true);
        // Remap under the active PT-consistency scheme: the unmap and
        // map go through the write policy exactly like any other PTE
        // mutation, and the listeners keep the durable mapping list
        // in step.
        ptMgr->unmap(v.proc->ptRoot, v.vaddr);
        for (auto *l : listeners)
            l->onFrameUnmapped(*v.proc, v.vaddr, bad, true);
        ptMgr->map(v.proc->ptRoot, v.vaddr, repl, v.writable,
                   repl_nvm);
        for (auto *l : listeners)
            l->onFrameMapped(*v.proc, v.vaddr, repl, repl_nvm);
        for (auto *l : listeners)
            l->onFrameRetired(v.proc, v.vaddr, bad, repl);
        shootdownPage(v.proc->pid, v.vaddr);
        ++nvmPagesMigrated;
        KINDLE_TRACE_INSTANT_ARGS(vma, "os.migrateOffBad",
                                  "pid={} vaddr={} to={} nvm={}",
                                  v.proc->pid, v.vaddr, repl, repl_nvm);
    }

    if (victims.empty()) {
        // Allocated but unmapped (e.g. mid-protocol): nothing to
        // rescue, and the owner still holds the allocation.
        for (auto *l : listeners)
            l->onFrameRetired(nullptr, invalidAddr, bad, invalidAddr);
        return;
    }

    // The bitmap bit clears durably; the retired frame never returns
    // to the free pool.  (An OOM-killed owner's exit may already have
    // released it through the normal unmap path.)
    if (nvmAlloc->isAllocated(bad))
        nvmAlloc->free(bad);
}

void
Kernel::exitProcess(Process &proc)
{
    if (proc.state == ProcState::zombie)
        return;
    // Release the whole address space.
    std::vector<Vma> all;
    proc.aspace.forEach([&](const Vma &v) { all.push_back(v); });
    for (const Vma &vma : all)
        sysMunmap(proc, vma.range.start(), vma.range.size());
    ptMgr->teardown(proc.ptRoot);
    proc.ptRoot = invalidAddr;
    proc.state = ProcState::zombie;
    markSlotFree(proc.slot);
    for (CpuSlot &slot : cpus)
        if (slot.running == &proc)
            slot.running = nullptr;
    // Stale runqueue entries are skipped at pick (state == zombie).
    proc.queued = false;
    ++zombieCount;
    for (auto *l : listeners)
        l->onProcessExit(proc);
}

void
Kernel::reapExited()
{
    // Epoch-boundary only: callers up the stack may hold no Process
    // reference.  Scrub the stale runqueue pointers first — they are
    // the one place a zombie PCB is still reachable from.
    for (CpuSlot &slot : cpus) {
        std::erase_if(slot.runq, [](const Process *p) {
            return p->state == ProcState::zombie;
        });
    }
    std::erase_if(procs, [](const std::unique_ptr<Process> &p) {
        return p->state == ProcState::zombie;
    });
    zombieCount = 0;
}

} // namespace kindle::os
