/**
 * @file
 * Watermark-driven memory reclaim.
 *
 * The reclaim engine is the kernel's answer to running out of frames
 * before the OOM killer has to be: an event-queue citizen (like the
 * NVM patrol scrubber) that wakes on an interval and, whenever the
 * DRAM zone's free level sits at or below its low watermark, demotes
 * cold DRAM pages into NVM until the level recovers to the high
 * watermark or the per-pass batch budget runs out.  NVM pressure has
 * no page-level relief valve — the user pool is only drained by live
 * mappings — so at or below the NVM low watermark the engine instead
 * fires an "early checkpoint" hook: the persistence domain truncates
 * the redo log and compacts dead saved-state slots, shedding the
 * metadata side of NVM pressure (see PersistDomain::enableBackpressure).
 *
 * Cold-page selection is deterministic: the tree maintains no PTE
 * accessed bits, so the engine approximates coldness by never touching
 * a process that is currently resident on a core, and round-robins a
 * pid cursor across the rest for fairness.  Demotion reuses the frame
 * retirement migration choreography (copy, remap under the active PT
 * policy, shoot down stale TLB entries) and is crash-consistent: a
 * power cut at reclaim.pre_demote leaves an allocated-but-unmapped NVM
 * frame that recovery's leak reclaim sweeps back to the free pool.
 */

#ifndef KINDLE_OS_RECLAIM_HH
#define KINDLE_OS_RECLAIM_HH

#include <functional>

#include "base/stats.hh"
#include "base/types.hh"
#include "sim/event.hh"

namespace kindle::os
{

class Kernel;

/** The background reclaim engine; owned by the kernel. */
class ReclaimEngine
{
  public:
    /**
     * @param checkpoint_min_gap Minimum gap between NVM-pressure
     *        checkpoint requests.  A zone pinned at its cap (every
     *        frame held by live mappings) sits below its low watermark
     *        indefinitely; without a throttle every patrol pass
     *        converts into a whole-population early checkpoint, which
     *        at fleet scale costs more than the patrol interval and
     *        livelocks the machine.  0 = request on every qualifying
     *        pass.
     */
    ReclaimEngine(Kernel &kernel, Tick checkpoint_min_gap);
    ~ReclaimEngine();

    ReclaimEngine(const ReclaimEngine &) = delete;
    ReclaimEngine &operator=(const ReclaimEngine &) = delete;

    void start();

    /**
     * Route NVM-pressure relief to the persistence domain (may be
     * null: a machine without a persistence config has no checkpoint
     * to pull forward and simply rides its watermarks).
     */
    void setCheckpointHook(std::function<void()> fn)
    {
        checkpointHook = std::move(fn);
    }

    /**
     * Direct reclaim: one synchronous pass on behalf of an allocation
     * that found its zone empty, bypassing the patrol interval.
     */
    void emergencyPass();

    statistics::StatGroup &stats() { return statGroup; }

  private:
    void patrol();

    /** Fire the early-checkpoint hook, honoring checkpointMinGap. */
    void maybeRequestCheckpoint();

    /** Demote up to batchPages cold DRAM pages; returns pages moved. */
    unsigned demoteBatch();

    /** Gap between patrol passes. */
    static constexpr Tick interval = oneMs / 4;
    /** Max pages demoted DRAM→NVM per pass. */
    static constexpr unsigned batchPages = 8;

    Kernel &kernel;
    const Tick checkpointMinGap;
    std::function<void()> checkpointHook;

    sim::PeriodicEvent timer;
    /** Round-robin fairness cursor over victim pids. */
    Pid cursor = 0;
    /** Tick of the last honored checkpoint request. */
    Tick lastCheckpointRequest = 0;
    bool checkpointEverRequested = false;

    statistics::StatGroup statGroup;
    statistics::Scalar &passes;
    statistics::Scalar &emergencyPasses;
    statistics::Scalar &pagesDemoted;
    statistics::Scalar &demoteStallsNoNvm;
    statistics::Scalar &checkpointsRequested;
};

} // namespace kindle::os

#endif // KINDLE_OS_RECLAIM_HH
