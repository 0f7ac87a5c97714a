/**
 * @file
 * Patrol scrubber for the NVM media.
 *
 * ECC only helps while errors stay below its correction capability;
 * left alone, drift faults accumulate until two land on the same line
 * and the data is gone.  The patrol scrubber is the standard hardware
 * answer: an event-driven background walker that sweeps the NVM range
 * one chunk per interval, re-reading every line's ECC state.  Lines
 * with a single error bit are rewritten in place (the re-program heals
 * drift faults and the rewrite is charged device write time); lines
 * with uncorrectable damage — and frames past their write-endurance
 * budget — are reported upward through a callback so the OS can retire
 * the frame and migrate its page before the damage is consumed.
 *
 * The scrubber is a passive component between reboots: stop() is
 * called on crash (the machine is off), start() on (re)boot.  It keeps
 * no state that must survive power loss — the media model itself holds
 * the physical error state.
 */

#ifndef KINDLE_MEM_SCRUBBER_HH
#define KINDLE_MEM_SCRUBBER_HH

#include <functional>

#include "base/stats.hh"
#include "base/types.hh"
#include "sim/event.hh"
#include "sim/simulation.hh"

namespace kindle::mem
{

class HybridMemory;

/** Patrol cadence configuration. */
struct ScrubParams
{
    /** Gap between patrol chunks. */
    Tick interval = oneMs;
    /** NVM bytes inspected per patrol chunk. */
    std::uint64_t chunkBytes = 16 * oneMiB;
};

/**
 * The background patrol engine.  Construct once per machine; start()
 * and stop() follow boot/crash, and stats accumulate across reboots.
 */
class PatrolScrubber
{
  public:
    /** Called for frames needing retirement: (frame_addr, reason). */
    using BadFrameFn = std::function<void(Addr, const char *)>;

    PatrolScrubber(sim::Simulation &sim, HybridMemory &memory,
                   ScrubParams params);
    ~PatrolScrubber();

    /** Route uncorrectable/exhausted frames to the OS (may be null). */
    void setBadFrameHandler(BadFrameFn fn) { handler = std::move(fn); }

    void start();
    void stop();
    bool running() const { return timer.running(); }

    const ScrubParams &params() const { return _params; }

    statistics::StatGroup &stats() { return statGroup; }

  private:
    void patrol();

    sim::Simulation &sim;
    HybridMemory &memory;
    ScrubParams _params;
    BadFrameFn handler;

    sim::PeriodicEvent timer;
    /** Next patrol position (offset into the NVM range). */
    std::uint64_t cursor = 0;

    statistics::StatGroup statGroup;
    statistics::Scalar &patrolChunks;
    statistics::Scalar &patrolPasses;
    statistics::Scalar &scrubCorrected;
    statistics::Scalar &scrubUncorrectable;
    statistics::Scalar &retirementsRequested;
};

} // namespace kindle::mem

#endif // KINDLE_MEM_SCRUBBER_HH
