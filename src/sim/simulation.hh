/**
 * @file
 * The simulation kernel: global tick plus the event queue.
 */

#ifndef KINDLE_SIM_SIMULATION_HH
#define KINDLE_SIM_SIMULATION_HH

#include "base/types.hh"
#include "sim/event.hh"
#include "trace/profiler.hh"

namespace kindle::sim
{

/**
 * Owns simulated time.  The CPU and system services advance time by
 * calling bump(); service() dispatches every event whose due tick has
 * been reached.  Event handlers themselves bump time for the work they
 * perform (e.g. a checkpoint's NVM writes), which naturally serializes
 * OS service time with application progress — the property the paper's
 * Table IV experiment depends on.
 */
class Simulation
{
  public:
    Simulation() = default;

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Current simulated time. */
    Tick now() const { return curTick; }

    /** Advance time by @p delta ticks. */
    void bump(Tick delta) { curTick += delta; }

    /** Advance time to at least @p target. */
    void
    bumpTo(Tick target)
    {
        if (target > curTick)
            curTick = target;
    }

    /**
     * Set the clock to exactly @p t, possibly moving it backwards.
     * Used only by the SMP scheduler, which rewinds to the epoch start
     * before running each core's quantum and finally warps forward to
     * the latest per-core finish time.  Pending events are untouched:
     * an event due between the epoch start and @p t simply fires when
     * some core's timeline reaches it again, which keeps the
     * interleaving deterministic.
     */
    void warpTo(Tick t) { curTick = t; }

    /** The global event queue. */
    EventQueue &eventq() { return queue; }

    /**
     * Run every event due at or before the current tick.  Events may
     * bump time while processing; newly due events are then also run,
     * so one call fully drains the backlog.
     */
    void
    service()
    {
        // Probe only when something is actually due: service() is
        // called on every memory access, and the empty case must stay
        // a couple of loads.  The event category then charges for
        // dispatch itself; handler bodies carry their own probes, so
        // their time lands in their subsystem categories.
        Event *ev = queue.popDue(curTick);
        if (!ev)
            return;
        KINDLE_PROF_SCOPE(event);
        do {
            ev->process();
        } while ((ev = queue.popDue(curTick)));
    }

    /**
     * Reset time and drop all pending events.  Used when simulating a
     * machine crash/reboot (volatile state disappears; the new boot
     * starts a fresh timeline offset).
     */
    void
    hardReset()
    {
        queue.clear();
    }

  private:
    Tick curTick = 0;
    EventQueue queue;
};

} // namespace kindle::sim

#endif // KINDLE_SIM_SIMULATION_HH
