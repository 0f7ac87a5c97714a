/**
 * @file
 * Discrete events and the global event queue.
 *
 * Kindle's execution model is CPU-driven: the core advances the global
 * tick as it executes memory operations, and the event queue interleaves
 * periodic system activities (checkpoints, HSCC migration intervals, the
 * SSP consolidation thread, scheduler timeslices) whenever their due
 * tick has been reached or passed.  Events with equal ticks fire in
 * (priority, insertion) order, which keeps runs fully deterministic.
 */

#ifndef KINDLE_SIM_EVENT_HH
#define KINDLE_SIM_EVENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/types.hh"

namespace kindle::sim
{

class EventQueue;
class Simulation;

/**
 * An occurrence scheduled on the EventQueue.  Subclass and implement
 * process(), or use PeriodicEvent for timers.
 */
class Event
{
  public:
    /** Relative ordering of events due at the same tick (lower first). */
    enum class Priority : int
    {
        ckpt = 0,      ///< persistence checkpoints run first
        migration = 1, ///< HSCC migration interval
        consolidate = 2, ///< SSP consolidation thread
        sched = 3,     ///< scheduler timeslice
        scrub = 4,     ///< NVM patrol scrubber pass
        deflt = 10,
        telemetry = 20, ///< sampler runs last: observes post-event state
    };

    explicit Event(std::string name,
                   Priority prio = Priority::deflt)
        : _name(std::move(name)), _priority(prio)
    {}

    /** A still-scheduled event deschedules itself on destruction so
     *  the queue never holds an entry it might dereference after the
     *  owner died (crash() tears components down mid-simulation). */
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Perform the event's work; may reschedule itself. */
    virtual void process() = 0;

    const std::string &name() const { return _name; }
    Priority priority() const { return _priority; }

    /** Is the event currently on a queue? */
    bool scheduled() const { return _scheduled; }

    /** Tick the event is due at (valid only while scheduled). */
    Tick when() const { return _when; }

  private:
    friend class EventQueue;

    std::string _name;
    Priority _priority;
    bool _scheduled = false;
    Tick _when = 0;
    std::uint64_t _seq = 0;
    EventQueue *_queue = nullptr;
};

/**
 * A periodic timer: each firing runs the body and then, if the timer
 * is still running, re-arms itself one period later.  The period is
 * measured from the body's *end*, so time the body bumps delays the
 * next firing (a checkpoint longer than its interval cannot
 * re-trigger itself), and a body that stops the timer or throws
 * (PowerLoss from a crash site) leaves it unarmed.
 */
class PeriodicEvent : public Event
{
  public:
    PeriodicEvent(std::string name, Priority prio, Simulation &sim,
                  std::function<void()> body);

    /** Arm the first firing at now + @p period; no-op while running. */
    void start(Tick period);

    /** Disarm; no-op while stopped. */
    void stop();

    bool running() const { return _running; }

    /** Replace the pending firing with one due now (must be running). */
    void fireNow();

    /** Period used from the next re-arm on. */
    void setPeriod(Tick period);

    void process() override;

  private:
    Simulation &sim;
    std::function<void()> body;
    Tick period = 0;
    bool _running = false;
};

/**
 * A time-ordered queue of events.  The queue does not own events;
 * owners must keep them alive while scheduled (the usual pattern is a
 * member Event inside the scheduling component).
 *
 * A machine schedules a handful of events at once (its timers plus
 * one IPI doorbell per core), so the queue is an unsorted list of
 * the scheduled events and a cached earliest one.  Scheduling
 * compares against the cached event, removing the earliest event
 * rescans the list, and a popDue() with nothing due is one compare
 * against the cached tick.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    /**
     * A queue dying with events still scheduled (e.g. a crash tearing
     * the Simulation down while per-core kernel objects hold pending
     * IPIs) must clear their _scheduled flags, or the events'
     * destructors would call deschedule() on a dead queue.
     */
    ~EventQueue() { clear(); }

    /** Schedule @p ev at absolute tick @p when. */
    void schedule(Event *ev, Tick when);

    /** Remove a scheduled event (no-op if not scheduled). */
    void deschedule(Event *ev);

    /** Earliest due tick, or maxTick when empty. */
    Tick nextTick() const { return headWhen; }

    /** True when no events are pending. */
    bool empty() const { return events.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return events.size(); }

    /**
     * Pop the earliest event if it is due at or before @p now.
     * Returns nullptr when nothing is due.
     */
    Event *
    popDue(Tick now)
    {
        if (now < headWhen || !head)
            return nullptr;
        Event *ev = head;
        remove(ev);
        return ev;
    }

    /** Drop every pending event (used by crash handling). */
    void clear();

  private:
    /** Fires @p a before @p b: (when, priority, schedule order). */
    static bool before(const Event *a, const Event *b);

    /** Take @p ev off the list (it must be on it). */
    void remove(Event *ev);

    /** Recompute the earliest event after the list changed. */
    void findHead();

    /** The scheduled events, in no particular order. */
    std::vector<Event *> events;
    /** The earliest scheduled event, or null when empty. */
    Event *head = nullptr;
    /** head's due tick, or maxTick when empty. */
    Tick headWhen = maxTick;
    std::uint64_t nextSeq = 0;
};

} // namespace kindle::sim

#endif // KINDLE_SIM_EVENT_HH
