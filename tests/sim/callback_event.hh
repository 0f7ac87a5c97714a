/**
 * @file
 * A one-shot event wrapping a callable, for tests that schedule ad-hoc
 * work on a simulation's event queue.
 */

#ifndef KINDLE_TESTS_SIM_CALLBACK_EVENT_HH
#define KINDLE_TESTS_SIM_CALLBACK_EVENT_HH

#include <functional>
#include <string>
#include <utility>

#include "sim/event.hh"

namespace kindle::sim
{

/** A one-shot event wrapping a callable. */
class CallbackEvent : public Event
{
  public:
    CallbackEvent(std::string name, std::function<void()> fn,
                  Priority prio = Priority::deflt)
        : Event(std::move(name), prio), callback(std::move(fn))
    {}

    void process() override { callback(); }

  private:
    std::function<void()> callback;
};

} // namespace kindle::sim

#endif // KINDLE_TESTS_SIM_CALLBACK_EVENT_HH
