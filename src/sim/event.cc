#include "sim/event.hh"

#include "base/logging.hh"
#include "sim/simulation.hh"

namespace kindle::sim
{

Event::~Event()
{
    if (_scheduled && _queue)
        _queue->deschedule(this);
}

PeriodicEvent::PeriodicEvent(std::string name, Priority prio,
                             Simulation &sim, std::function<void()> body)
    : Event(std::move(name), prio), sim(sim), body(std::move(body))
{}

void
PeriodicEvent::start(Tick first_period)
{
    if (_running)
        return;
    setPeriod(first_period);
    _running = true;
    sim.eventq().schedule(this, sim.now() + period);
}

void
PeriodicEvent::stop()
{
    if (!_running)
        return;
    _running = false;
    sim.eventq().deschedule(this);
}

void
PeriodicEvent::fireNow()
{
    kindle_assert(_running, "arming stopped timer '{}'", name());
    sim.eventq().deschedule(this);
    sim.eventq().schedule(this, sim.now());
}

void
PeriodicEvent::setPeriod(Tick new_period)
{
    kindle_assert(new_period > 0, "timer '{}' needs a non-zero period",
                  name());
    period = new_period;
}

void
PeriodicEvent::process()
{
    body();
    if (_running)
        sim.eventq().schedule(this, sim.now() + period);
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    kindle_assert(ev != nullptr, "scheduling null event");
    kindle_assert(!ev->_scheduled, "event '{}' already scheduled",
                  ev->name());
    ev->_scheduled = true;
    ev->_when = when;
    ev->_seq = nextSeq++;
    ev->_queue = this;
    live.insert(ev->_seq);
    heap.push(Entry{when, static_cast<int>(ev->priority()), ev->_seq, ev});
}

void
EventQueue::deschedule(Event *ev)
{
    // Lazy removal: mark the event unscheduled and retire its seq; the
    // heap entry becomes stale and is dropped (without touching the
    // event again) when it reaches the top.
    if (ev && ev->_scheduled) {
        ev->_scheduled = false;
        live.erase(ev->_seq);
    }
}

void
EventQueue::skipStale(Tick)
{
    // Stale entries are recognised by seq alone: their Event* may
    // already dangle (owner destroyed after descheduling).
    while (!heap.empty() && live.find(heap.top().seq) == live.end())
        heap.pop();
}

Tick
EventQueue::nextTick() const
{
    // const_cast-free variant: scan by copying is too costly; instead
    // maintain the invariant that callers use popDue() which skips
    // stale entries.  Here we conservatively look through a copy of
    // the top only.
    auto &self = const_cast<EventQueue &>(*this);
    self.skipStale(0);
    return heap.empty() ? maxTick : heap.top().when;
}

Event *
EventQueue::popDue(Tick now)
{
    // The top is the earliest entry, stale or not, so when it is not
    // due nothing is: return before the live-set probe.  A stale entry
    // therefore waits in the heap until its tick comes.
    if (heap.empty() || heap.top().when > now)
        return nullptr;
    skipStale(now);
    if (heap.empty() || heap.top().when > now)
        return nullptr;
    Event *ev = heap.top().ev;
    live.erase(heap.top().seq);
    heap.pop();
    ev->_scheduled = false;
    return ev;
}

void
EventQueue::clear()
{
    // Live entries point at alive events (a scheduled event
    // deschedules itself on destruction), so resetting their flag is
    // safe; stale entries are dropped without being dereferenced.
    while (!heap.empty()) {
        if (live.find(heap.top().seq) != live.end())
            heap.top().ev->_scheduled = false;
        heap.pop();
    }
    live.clear();
}

} // namespace kindle::sim
