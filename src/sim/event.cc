#include "sim/event.hh"

#include <algorithm>

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

bool
EventQueue::before(const Event *a, const Event *b)
{
    if (a->_when != b->_when)
        return a->_when < b->_when;
    if (a->_priority != b->_priority)
        return a->_priority < b->_priority;
    return a->_seq < b->_seq;
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
    events.push_back(ev);
    if (!head || before(ev, head)) {
        head = ev;
        headWhen = when;
    }
}

void
EventQueue::deschedule(Event *ev)
{
    if (ev && ev->_scheduled)
        remove(ev);
}

void
EventQueue::remove(Event *ev)
{
    ev->_scheduled = false;
    // Order within the list does not matter: swap with the back.
    auto it = std::find(events.begin(), events.end(), ev);
    kindle_assert(it != events.end(), "event '{}' not on this queue",
                  ev->name());
    *it = events.back();
    events.pop_back();
    if (ev == head)
        findHead();
}

void
EventQueue::findHead()
{
    head = nullptr;
    for (Event *ev : events) {
        if (!head || before(ev, head))
            head = ev;
    }
    headWhen = head ? head->_when : maxTick;
}

void
EventQueue::clear()
{
    // Every listed event is alive (a scheduled event deschedules
    // itself on destruction), so resetting its flag is safe.
    for (Event *ev : events)
        ev->_scheduled = false;
    events.clear();
    head = nullptr;
    headWhen = maxTick;
}

} // namespace kindle::sim
