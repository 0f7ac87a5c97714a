#include "persist/checkpoint.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/trace_flags.hh"
#include "cpu/pagetable_defs.hh"
#include "fault/fault.hh"
#include "telemetry/profiler.hh"
#include "trace/trace.hh"

namespace kindle::persist
{

PersistDomain::PersistDomain(const PersistParams &params,
                             os::Kernel &kernel_arg)
    : _params(params),
      kernel(kernel_arg),
      event(*this),
      statGroup("persist",
                "process-persistence domain (periodic checkpointing)"),
      checkpoints(statGroup.addScalar("checkpoints",
                                      "periodic checkpoints taken")),
      ckptTicks(statGroup.addDistribution(
          "ckptTicks", "simulated time per checkpoint")),
      ckptDuration(statGroup.addHistogram(
          "ckptDuration", "checkpoint duration distribution (ticks)")),
      mappingEntries(statGroup.addScalar(
          "mappingEntries", "mapping-list entries written")),
      redoRecords(statGroup.addScalar("redoRecords",
                                      "metadata redo records"))
{
    const os::NvmLayout &layout = kernel.nvmLayout();
    slots.resize(layout.procSlots);
    incState.resize(layout.procSlots);
    listedPid.resize(layout.procSlots, 0);
    const std::uint64_t half = layout.redoLogBytes / 2;
    metaLog = std::make_unique<RedoLog>(kernel.kmem(), layout.redoLog,
                                        half, "redoLog");
    if (_params.scheme == PtScheme::persistent) {
        kindle_assert(kernel.params().ptInNvm,
                      "persistent scheme requires NVM-hosted page "
                      "tables (KernelParams::ptInNvm)");
        ptPolicy = std::make_unique<ConsistentPtWrite>(
            kernel.kmem(), layout.redoLog + half, half);
        statGroup.addChild(ptPolicy->stats());
    } else {
        kindle_assert(!kernel.params().ptInNvm,
                      "rebuild scheme hosts page tables in DRAM");
    }
    statGroup.addChild(metaLog->stats());
    if (_params.skipCleanProcesses) {
        cleanSkips = &statGroup.addScalar(
            "cleanSkips",
            "checkpoint sweeps skipped for unchanged processes");
    }
}

PersistDomain::~PersistDomain()
{
    stop();
}

SavedStateSlot &
PersistDomain::slotFor(const os::Process &proc)
{
    auto &opt = slots[proc.slot];
    if (!opt) {
        opt.emplace(kernel.kmem(), kernel.nvmLayout(), proc.slot);
    }
    return *opt;
}

void
PersistDomain::start()
{
    if (started)
        return;
    started = true;

    if (ptPolicy)
        kernel.setPtWritePolicy(ptPolicy.get());

    // Adopt restored processes, initialize slots for fresh ones.  None
    // has been swept by this domain yet, so all start out dirty.
    for (const auto &proc : kernel.processes()) {
        if (proc->state == os::ProcState::zombie)
            continue;
        markDirty(*proc);
        SavedStateSlot &slot = slotFor(*proc);
        if (proc->restored) {
            slot.readHeader();
        } else {
            slot.initialize(proc->pid, proc->name, _params.scheme);
            if (_params.scheme == PtScheme::persistent)
                slot.setPtRoot(proc->ptRoot);
        }
    }

    kernel.addListener(this);
    scheduleNext();
}

void
PersistDomain::stop()
{
    if (!started)
        return;
    started = false;
    kernel.removeListener(this);
    kernel.setPtWritePolicy(nullptr);
    kernel.simulation().eventq().deschedule(&event);
}

void
PersistDomain::enableBackpressure(double fraction)
{
    kindle_assert(fraction > 0.0 && fraction <= 1.0,
                  "backpressure fraction {} out of (0, 1]", fraction);
    backpressure = true;
    armPressureStats();
    const std::uint64_t cap = metaLog->capacityRecords();
    const std::uint64_t threshold = std::max<std::uint64_t>(
        1, std::min(cap, static_cast<std::uint64_t>(
                             static_cast<double>(cap) * fraction)));
    metaLog->setHighWater(threshold,
                          [this] { requestEarlyCheckpoint(); });
}

void
PersistDomain::armPressureStats()
{
    if (earlyCheckpoints)
        return;
    earlyCheckpoints = &statGroup.addScalar(
        "earlyCheckpoints",
        "checkpoints pulled forward by redo-log high water");
    slotsCompacted = &statGroup.addScalar(
        "slotsCompacted",
        "dead saved-state slots compacted under pressure");
}

void
PersistDomain::requestEarlyCheckpoint()
{
    if (!started || inCheckpoint)
        return;
    armPressureStats();
    ++*earlyCheckpoints;
    compactNext = true;
    sim::Simulation &sim = kernel.simulation();
    trace::dprintf(trace::Flag::checkpoint, sim.now(),
                   "redo log at high water ({} pending): checkpoint "
                   "pulled forward", metaLog->pending());
    // Re-arm the periodic event for "now": it fires at the kernel's
    // next event-queue service point, i.e. between instructions rather
    // than in the middle of whatever protocol did the append.
    if (event.scheduled())
        sim.eventq().deschedule(&event);
    sim.eventq().schedule(&event, sim.now());
}

void
PersistDomain::compactSlots()
{
    // Durably invalidate (idempotent) and drop the host object of any
    // slot no live process owns: exited tenants leave stale working
    // and consistent copies behind, and under pressure those stale
    // regions are the cheapest durable state to retire.
    std::vector<bool> live(slots.size(), false);
    for (const auto &proc : kernel.processes()) {
        if (proc->state != os::ProcState::zombie)
            live[proc->slot] = true;
    }
    for (unsigned i = 0; i < slots.size(); ++i) {
        if (live[i] || !slots[i])
            continue;
        slots[i]->invalidate();
        slots[i].reset();
        incState[i].reset();
        ++*slotsCompacted;
    }
}

void
PersistDomain::scheduleNext()
{
    if (!started) {
        kindle_fatal("arming the checkpoint timer on a stopped "
                     "persistence domain — the system crashed (or the "
                     "domain was stopped) without a reboot()");
    }
    kernel.simulation().eventq().schedule(
        &event,
        kernel.simulation().now() + _params.checkpointInterval);
}

void
PersistDomain::markDirty(const os::Process &proc)
{
    if (!_params.skipCleanProcesses || listedPid[proc.slot] == proc.pid)
        return;
    listedPid[proc.slot] = proc.pid;
    dirtyPids.push_back(proc.pid);
}

void
PersistDomain::onProcessCreated(os::Process &proc)
{
    markDirty(proc);
    incState[proc.slot].reset();
    SavedStateSlot &slot = slotFor(proc);
    slot.initialize(proc.pid, proc.name, _params.scheme);
    if (_params.scheme == PtScheme::persistent)
        slot.setPtRoot(proc.ptRoot);
    RedoRecord rec;
    rec.type = RedoType::processCreated;
    rec.pid = proc.pid;
    metaLog->append(rec);
    ++redoRecords;
}

void
PersistDomain::onProcessExit(os::Process &proc)
{
    slotFor(proc).invalidate();
    incState[proc.slot].reset();
    RedoRecord rec;
    rec.type = RedoType::processExit;
    rec.pid = proc.pid;
    metaLog->append(rec);
    ++redoRecords;
}

void
PersistDomain::onVmaAdded(os::Process &proc, const os::Vma &vma)
{
    markDirty(proc);
    RedoRecord rec;
    rec.type = RedoType::vmaAdded;
    rec.pid = proc.pid;
    rec.a = vma.range.start();
    rec.b = vma.range.end();
    rec.c = vma.prot;
    rec.d = vma.nvm ? 1 : 0;
    metaLog->append(rec);
    ++redoRecords;
}

void
PersistDomain::onVmaRemoved(os::Process &proc, const os::Vma &vma)
{
    markDirty(proc);
    RedoRecord rec;
    rec.type = RedoType::vmaRemoved;
    rec.pid = proc.pid;
    rec.a = vma.range.start();
    rec.b = vma.range.end();
    metaLog->append(rec);
    ++redoRecords;
}

void
PersistDomain::onVmaChanging(os::Process &proc)
{
    markDirty(proc);
}

void
PersistDomain::onFaseStart(os::Process &proc)
{
    markDirty(proc);
    RedoRecord rec;
    rec.type = RedoType::faseMark;
    rec.pid = proc.pid;
    rec.a = 1;
    metaLog->append(rec);
    ++redoRecords;
}

void
PersistDomain::onFaseEnd(os::Process &proc)
{
    markDirty(proc);
    RedoRecord rec;
    rec.type = RedoType::faseMark;
    rec.pid = proc.pid;
    rec.a = 0;
    metaLog->append(rec);
    ++redoRecords;
}

void
PersistDomain::onContextSwitch(os::Process *from, os::Process *to)
{
    // The incoming process is about to run.  The outgoing one is
    // already listed: it was switched in since the last checkpoint, or
    // it was resident when that checkpoint ended.
    (void)from;
    if (to)
        markDirty(*to);
}

void
PersistDomain::checkpointProcess(os::Process &proc,
                                 const SavedContext &ctx)
{
    KINDLE_TRACE_SPAN_ARGS(checkpoint, ckpt, "ckpt.process", "pid={}",
                           proc.pid);
    SavedStateSlot &slot = slotFor(proc);

    // Durably write the working copy of the serialized context.
    {
        KINDLE_TRACE_SPAN(checkpoint, ckpt, "ckpt.workingWrite");
        slot.writeWorkingContext(ctx);
    }
    KINDLE_CRASH_SITE("ckpt.after_working_write");

    {
        KINDLE_TRACE_SPAN(checkpoint, ckpt, "ckpt.ptWalk");
        if (_params.scheme == PtScheme::rebuild) {
            if (_params.incrementalMappingList)
                updateMappingListIncremental(proc, slot);
            else
                updateMappingListFull(proc, slot);
        } else {
            slot.setPtRoot(proc.ptRoot);
        }
    }
    KINDLE_CRASH_SITE("ckpt.after_mapping_update");

    // Publish: flip the consistent index.
    {
        KINDLE_TRACE_SPAN(checkpoint, ckpt, "ckpt.commit");
        slot.commit();
    }
    KINDLE_CRASH_SITE("ckpt.after_commit");

    if (_params.skipCleanProcesses) {
        IncState &st = incState[proc.slot];
        st.lastCtx = ctx;
        st.ctxValid = true;
        st.mapDirty = false;
    }
}

void
PersistDomain::updateMappingListFull(os::Process &proc,
                                     SavedStateSlot &slot)
{
    // Traverse the page table and refresh the virtual→NVM-physical
    // mapping list.  This is the rebuild scheme's recurring cost: it
    // scales with the mapped address-space size.
    std::uint64_t count = 0;
    kernel.pageTables().forEachLeaf(
        proc.ptRoot, [&](Addr va, cpu::Pte pte, Addr) {
            if (!pte.nvmBacked())
                return;
            slot.writeMappingEntry(count, {cpu::vpnOf(va), pte.pfn()});
            ++count;
        });
    slot.finalizeMappingList(count);
    mappingEntries += static_cast<double>(count);
}

void
PersistDomain::updateMappingListIncremental(os::Process &proc,
                                            SavedStateSlot &slot)
{
    IncState &st = incState[proc.slot];
    if (!st.built) {
        // First checkpoint for this process (or after recovery):
        // seed the list with one full traversal, then stay
        // event-driven.
        st.reset();
        st.built = true;
        kernel.pageTables().forEachLeaf(
            proc.ptRoot, [&](Addr va, cpu::Pte pte, Addr) {
                if (!pte.nvmBacked())
                    return;
                const MappingEntry e{cpu::vpnOf(va), pte.pfn()};
                slot.writeMappingEntry(st.list.size(), e,
                                       /*charge_scan=*/false);
                st.posOf[e.vpn] = st.list.size();
                st.list.push_back(e);
            });
        slot.finalizeMappingList(st.list.size());
        mappingEntries += static_cast<double>(st.list.size());
        return;
    }

    // Apply the mutations recorded since the last checkpoint, in
    // order.  Removals keep the durable array dense by moving the
    // tail entry into the vacated slot.
    for (const auto &[is_add, entry] : st.pending) {
        if (is_add) {
            const auto it = st.posOf.find(entry.vpn);
            if (it != st.posOf.end()) {
                st.list[it->second] = entry;
                slot.writeMappingEntry(it->second, entry, false);
            } else {
                st.posOf[entry.vpn] = st.list.size();
                slot.writeMappingEntry(st.list.size(), entry, false);
                st.list.push_back(entry);
            }
            ++mappingEntries;
        } else {
            const auto it = st.posOf.find(entry.vpn);
            if (it == st.posOf.end())
                continue;
            const std::uint64_t idx = it->second;
            st.posOf.erase(it);
            const std::uint64_t last = st.list.size() - 1;
            if (idx != last) {
                st.list[idx] = st.list[last];
                slot.writeMappingEntry(idx, st.list[idx], false);
                st.posOf[st.list[idx].vpn] = idx;
                ++mappingEntries;
            }
            st.list.pop_back();
        }
    }
    st.pending.clear();
    slot.finalizeMappingList(st.list.size());
}

void
PersistDomain::onFrameMapped(os::Process &proc, Addr vaddr, Addr frame,
                             bool nvm)
{
    if (!nvm)
        return;
    // Clean-skip tracking is scheme-independent: reclaim can demote an
    // idle process's pages without its context ever changing, and the
    // next sweep must not skip it.
    markDirty(proc);
    incState[proc.slot].mapDirty = true;
    if (_params.scheme != PtScheme::rebuild ||
        !_params.incrementalMappingList) {
        return;
    }
    incState[proc.slot].pending.emplace_back(
        true, MappingEntry{cpu::vpnOf(vaddr), frame >> pageShift});
}

void
PersistDomain::onFrameUnmapped(os::Process &proc, Addr vaddr,
                               Addr frame, bool nvm)
{
    (void)frame;
    if (!nvm)
        return;
    markDirty(proc);
    incState[proc.slot].mapDirty = true;
    if (_params.scheme != PtScheme::rebuild ||
        !_params.incrementalMappingList) {
        return;
    }
    incState[proc.slot].pending.emplace_back(
        false, MappingEntry{cpu::vpnOf(vaddr), 0});
}

void
PersistDomain::onFrameRetired(os::Process *proc, Addr vaddr,
                              Addr bad_frame, Addr new_frame)
{
    // The retirement itself is already durable (bad-frame bitmap) and
    // the migration flowed through onFrameUnmapped/onFrameMapped; the
    // redo record is the audit trail recovery tooling can replay.
    RedoRecord rec;
    rec.type = RedoType::frameRetired;
    rec.pid = proc ? proc->pid : 0;
    rec.a = bad_frame;
    rec.b = new_frame;
    rec.c = vaddr;
    metaLog->append(rec);
    ++redoRecords;
}

void
PersistDomain::addSweepItem(os::Process &proc)
{
    SweepItem &item = sweep.emplace_back();
    item.proc = &proc;
    item.ctx = SavedStateSlot::snapshot(proc, kernel.contextOf(proc));
    item.clean = false;
    if (_params.skipCleanProcesses) {
        const IncState &st = incState[proc.slot];
        item.clean = st.ctxValid && !st.mapDirty && st.pending.empty() &&
                     sameContext(st.lastCtx, item.ctx);
    }
}

void
PersistDomain::checkpointNow()
{
    KINDLE_PROF_SCOPE(ckpt);
    sim::Simulation &sim = kernel.simulation();
    const Tick t0 = sim.now();

    // Guard against high-water re-arming while we run (the log resets
    // below anyway); exception-safe because a crash site inside the
    // checkpoint can throw PowerLoss through here.
    struct InCkptGuard
    {
        bool &flag;
        explicit InCkptGuard(bool &f) : flag(f) { flag = true; }
        ~InCkptGuard() { flag = false; }
    } guard(inCheckpoint);

    // The enclosing span covers every tick ckptTicks attributes to
    // checkpointing: the trace decomposition tests rely on the two
    // agreeing.
    KINDLE_TRACE_SPAN(checkpoint, ckpt, "ckpt");

    // Snapshot every swept context once (host-side; the simulated cost
    // is charged when the slot is written).  The clean-skip decision,
    // the CPU-state log and the per-process sweep all reuse it.  A
    // process is clean when its serialized context is bit-identical to
    // what its last sweep committed and no NVM mapping changed in the
    // interval — nothing about its durable image can differ, so both
    // the redo append and the slot sweep are pure media traffic.
    sweep.clear();
    if (_params.skipCleanProcesses) {
        // Only listed processes can have changed; every other live
        // process is clean by construction and is skipped unvisited.
        // Pids are assigned in creation order and reaping is stable,
        // so pid order is processes() order: records and slot writes
        // land exactly as a full sweep would issue them.
        std::sort(dirtyPids.begin(), dirtyPids.end());
        for (const Pid pid : dirtyPids) {
            os::Process *proc = kernel.findProcess(pid);
            if (!proc)
                continue;  // reaped; its stale mark never matches again
            listedPid[proc->slot] = 0;
            if (proc->state != os::ProcState::zombie)
                addSweepItem(*proc);
        }
        dirtyPids.clear();
        *cleanSkips += static_cast<double>(kernel.liveProcessCount() -
                                           sweep.size());
    } else {
        for (const auto &proc : kernel.processes()) {
            if (proc->state != os::ProcState::zombie)
                addSweepItem(*proc);
        }
    }

    // Log the CPU state of every swept process, then apply the full
    // redo log once (the working copies absorb all interval changes).
    KINDLE_CRASH_SITE("ckpt.before_cpu_log");
    {
        KINDLE_TRACE_SPAN(checkpoint, ckpt, "ckpt.cpuLog");
        for (const SweepItem &item : sweep) {
            if (item.clean)
                continue;
            RedoRecord rec;
            rec.type = RedoType::cpuState;
            rec.pid = item.proc->pid;
            rec.a = item.proc->context.rip;
            metaLog->append(rec);
            ++redoRecords;
        }
    }
    KINDLE_CRASH_SITE("ckpt.after_log_append");
    {
        KINDLE_TRACE_SPAN(checkpoint, ckpt, "ckpt.replay");
        metaLog->replay([](const RedoRecord &) {});
    }
    KINDLE_CRASH_SITE("ckpt.after_replay");

    for (const SweepItem &item : sweep) {
        if (item.clean) {
            ++*cleanSkips;
            continue;
        }
        checkpointProcess(*item.proc, item.ctx);
    }

    // A process resident on a core can keep executing past this
    // checkpoint without another switch event (it is re-picked at
    // slice end), so it is dirty for the next one.
    for (CpuId c = 0; c < kernel.numCores(); ++c) {
        if (const os::Process *occupant = kernel.runningOn(c))
            markDirty(*occupant);
    }

    if (backpressure || compactNext) {
        compactSlots();
        compactNext = false;
    }

    {
        KINDLE_TRACE_SPAN(checkpoint, ckpt, "ckpt.logReset");
        metaLog->reset();
        if (ptPolicy)
            ptPolicy->retireAll();
    }
    ++checkpoints;
    KINDLE_CRASH_SITE("ckpt.complete");
    ckptTicks.sample(static_cast<double>(sim.now() - t0));
    ckptDuration.sample(static_cast<double>(sim.now() - t0));
    trace::dprintf(trace::Flag::checkpoint, sim.now(),
                   "checkpoint complete in {} us",
                   ticksToUs(sim.now() - t0));
}

} // namespace kindle::persist
