#include "os/reclaim.hh"

#include <algorithm>
#include <vector>

#include "base/logging.hh"
#include "os/kernel.hh"
#include "trace/profiler.hh"
#include "trace/trace.hh"

namespace kindle::os
{

ReclaimEngine::ReclaimEngine(Kernel &kernel_arg,
                             Tick checkpoint_min_gap)
    : kernel(kernel_arg),
      checkpointMinGap(checkpoint_min_gap),
      timer("reclaim", sim::Event::Priority::scrub,
            kernel_arg.simulation(), [this] { patrol(); }),
      statGroup("reclaim", "watermark-driven memory reclaim"),
      passes(statGroup.addScalar("passes", "patrol passes run")),
      emergencyPasses(statGroup.addScalar(
          "emergencyPasses", "direct-reclaim passes for failed allocs")),
      pagesDemoted(statGroup.addScalar(
          "pagesDemoted", "cold DRAM pages demoted to NVM")),
      demoteStallsNoNvm(statGroup.addScalar(
          "demoteStallsNoNvm",
          "demotions abandoned for lack of NVM frames")),
      checkpointsRequested(statGroup.addScalar(
          "checkpointsRequested",
          "early checkpoints requested under NVM pressure"))
{
}

ReclaimEngine::~ReclaimEngine()
{
    // ~Event deschedules itself; nothing else to unwind.
}

void
ReclaimEngine::start()
{
    timer.start(interval);
}

void
ReclaimEngine::patrol()
{
    KINDLE_PROF_SCOPE(reclaim);
    ++passes;
    if (kernel.dramAllocator().belowLow())
        demoteBatch();
    if (kernel.nvmAllocator().belowLow())
        maybeRequestCheckpoint();
}

void
ReclaimEngine::emergencyPass()
{
    KINDLE_PROF_SCOPE(reclaim);
    ++emergencyPasses;
    demoteBatch();
    // Direct reclaim runs exactly when the machine is at its
    // tightest; if the NVM relief valve is itself low, ask the
    // persistence domain for an early checkpoint (truncating the redo
    // log and compacting slots) rather than waiting for the next
    // patrol to notice — NVM saturation windows can be far shorter
    // than the patrol interval.
    if (kernel.nvmAllocator().belowLow())
        maybeRequestCheckpoint();
}

void
ReclaimEngine::maybeRequestCheckpoint()
{
    if (!checkpointHook)
        return;
    const Tick now = kernel.simulation().now();
    if (checkpointEverRequested &&
        now - lastCheckpointRequest < checkpointMinGap) {
        return;
    }
    checkpointEverRequested = true;
    lastCheckpointRequest = now;
    ++checkpointsRequested;
    checkpointHook();
}

unsigned
ReclaimEngine::demoteBatch()
{
    FrameAllocator &dram = kernel.dramAllocator();
    const std::uint64_t target = dram.highWatermark();

    // Victim processes: anything not resident on a core right now
    // (the only coldness signal the tree maintains) and not inside a
    // failure-atomic section.  Round-robin the start point so one big
    // sleeper does not absorb every pass: processes() is in ascending
    // pid order (spawnShell appends nextPid++, reapExited erases
    // stably), so the walk starts at the first pid above the cursor
    // and wraps.  Reaping waits for an epoch boundary, so no entry is
    // erased while the pass runs.
    const auto &procs = kernel.processes();
    const std::size_t n = procs.size();
    const std::size_t start = static_cast<std::size_t>(
        std::upper_bound(procs.begin(), procs.end(), cursor,
                         [](Pid pid, const std::unique_ptr<Process> &p) {
                             return pid < p->pid;
                         }) -
        procs.begin());
    const auto victim = [this](const Process &p) {
        if (p.state == ProcState::zombie || p.ptRoot == invalidAddr ||
            p.faseActive) {
            return false;
        }
        for (CpuId c = 0; c < kernel.numCores(); ++c) {
            if (kernel.runningOn(c) == &p)
                return false;
        }
        return true;
    };

    unsigned demoted = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (demoted >= batchPages || dram.freeFrames() >= target)
            break;
        Process *proc = procs[(start + i) % n].get();
        if (!victim(*proc))
            continue;
        // Collect this process's DRAM-backed leaves (the software
        // walk is charged — scanning for victims is real work).
        std::vector<Addr> pages;
        kernel.pageTables().forEachLeaf(
            proc->ptRoot, [&](Addr va, cpu::Pte pte, Addr) {
                if (pte.present() && !pte.nvmBacked() &&
                    !pte.hsccRemapped()) {
                    pages.push_back(va);
                }
            });
        for (const Addr va : pages) {
            if (demoted >= batchPages || dram.freeFrames() >= target)
                break;
            if (!kernel.demotePage(*proc, va)) {
                // No NVM frame to demote onto: further candidates
                // fare no better this pass.
                ++demoteStallsNoNvm;
                cursor = proc->pid;
                return demoted;
            }
            ++pagesDemoted;
            ++demoted;
        }
        cursor = proc->pid;
    }
    if (demoted > 0) {
        KINDLE_TRACE_INSTANT_ARGS(reclaim, "reclaim.demote",
                                  "pages={} dramFree={}", demoted,
                                  dram.freeFrames());
    }
    return demoted;
}

} // namespace kindle::os
