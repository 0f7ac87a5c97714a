#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "base/logging.hh"
#include "base/random.hh"
#include "sim/clocked.hh"
#include "sim/event.hh"
#include "sim/simulation.hh"

#include "callback_event.hh"

namespace kindle::sim
{
namespace
{

TEST(EventQueueTest, FiresInTimeOrder)
{
    Simulation sim;
    std::vector<int> order;
    CallbackEvent a("a", [&] { order.push_back(1); });
    CallbackEvent b("b", [&] { order.push_back(2); });
    CallbackEvent c("c", [&] { order.push_back(3); });
    sim.eventq().schedule(&b, 200);
    sim.eventq().schedule(&c, 300);
    sim.eventq().schedule(&a, 100);

    sim.bump(250);
    sim.service();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    sim.bump(100);
    sim.service();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTickUsesPriorityThenInsertion)
{
    Simulation sim;
    std::vector<int> order;
    CallbackEvent low("low", [&] { order.push_back(1); },
                      Event::Priority::deflt);
    CallbackEvent high("high", [&] { order.push_back(2); },
                       Event::Priority::ckpt);
    CallbackEvent mid("mid", [&] { order.push_back(3); },
                      Event::Priority::sched);
    sim.eventq().schedule(&low, 100);
    sim.eventq().schedule(&mid, 100);
    sim.eventq().schedule(&high, 100);
    sim.bump(100);
    sim.service();
    EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

TEST(EventQueueTest, DescheduleCancels)
{
    Simulation sim;
    int fired = 0;
    CallbackEvent e("e", [&] { ++fired; });
    sim.eventq().schedule(&e, 100);
    sim.eventq().deschedule(&e);
    sim.bump(1000);
    sim.service();
    EXPECT_EQ(fired, 0);
    EXPECT_FALSE(e.scheduled());
}

TEST(EventQueueTest, RescheduleAfterDeschedule)
{
    Simulation sim;
    int fired = 0;
    CallbackEvent e("e", [&] { ++fired; });
    sim.eventq().schedule(&e, 100);
    sim.eventq().deschedule(&e);
    sim.eventq().schedule(&e, 150);
    sim.bump(200);
    sim.service();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, SelfReschedulingPeriodicEvent)
{
    Simulation sim;
    int fired = 0;

    class Periodic : public Event
    {
      public:
        Periodic(Simulation &sim, int &count)
            : Event("periodic"), sim(sim), count(count)
        {}
        void
        process() override
        {
            ++count;
            if (count < 5)
                sim.eventq().schedule(this, sim.now() + 100);
        }

      private:
        Simulation &sim;
        int &count;
    } periodic(sim, fired);

    sim.eventq().schedule(&periodic, 100);
    for (int step = 0; step < 10; ++step) {
        sim.bump(100);
        sim.service();
    }
    EXPECT_EQ(fired, 5);
}

TEST(EventQueueTest, EventBumpingTimeCascades)
{
    // An event handler advancing time makes later events due inside
    // the same service() call.
    Simulation sim;
    std::vector<int> order;
    CallbackEvent second("second", [&] { order.push_back(2); });
    CallbackEvent first("first", [&] {
        order.push_back(1);
        sim.bump(500);  // work done by the handler
    });
    sim.eventq().schedule(&first, 100);
    sim.eventq().schedule(&second, 400);
    sim.bump(100);
    sim.service();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, ClearDropsEverything)
{
    Simulation sim;
    int fired = 0;
    CallbackEvent e1("e1", [&] { ++fired; });
    CallbackEvent e2("e2", [&] { ++fired; });
    sim.eventq().schedule(&e1, 10);
    sim.eventq().schedule(&e2, 20);
    sim.eventq().clear();
    EXPECT_TRUE(sim.eventq().empty());
    sim.bump(100);
    sim.service();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueueTest, NextTickSkipsStaleEntries)
{
    Simulation sim;
    CallbackEvent e1("e1", [] {});
    CallbackEvent e2("e2", [] {});
    sim.eventq().schedule(&e1, 10);
    sim.eventq().schedule(&e2, 20);
    sim.eventq().deschedule(&e1);
    EXPECT_EQ(sim.eventq().nextTick(), 20u);
}

TEST(EventQueueTest, SizeAndEmptyCountLiveEntriesOnly)
{
    // size() and empty() must report the scheduled set after every
    // deschedule, or callers polling "is anything pending?" would
    // spin on ghosts.
    Simulation sim;
    CallbackEvent e1("e1", [] {});
    CallbackEvent e2("e2", [] {});
    sim.eventq().schedule(&e1, 10);
    sim.eventq().schedule(&e2, 20);
    EXPECT_EQ(sim.eventq().size(), 2u);
    sim.eventq().deschedule(&e1);
    EXPECT_EQ(sim.eventq().size(), 1u);
    EXPECT_FALSE(sim.eventq().empty());
    // Deschedule + reschedule must not inflate the count.
    sim.eventq().deschedule(&e2);
    sim.eventq().schedule(&e2, 30);
    EXPECT_EQ(sim.eventq().size(), 1u);
    sim.eventq().deschedule(&e2);
    EXPECT_TRUE(sim.eventq().empty());
    EXPECT_EQ(sim.eventq().size(), 0u);
}

TEST(EventQueueTest, DescheduledFarFutureEventNeverFires)
{
    // A cancelled far-future event must neither fire at its old tick
    // nor count as pending meanwhile.
    Simulation sim;
    int far_fired = 0, near_fired = 0;
    CallbackEvent far("far", [&] { ++far_fired; });
    CallbackEvent near("near", [&] { ++near_fired; });
    sim.eventq().schedule(&far, 1000);
    sim.eventq().deschedule(&far);
    EXPECT_TRUE(sim.eventq().empty());
    EXPECT_EQ(sim.eventq().size(), 0u);

    sim.eventq().schedule(&near, 2000);
    sim.bump(500);
    sim.service();
    EXPECT_EQ(sim.eventq().size(), 1u);
    sim.bump(1000);  // past the cancelled tick, before the live one
    sim.service();
    EXPECT_EQ(far_fired, 0);
    EXPECT_EQ(near_fired, 0);
    EXPECT_EQ(sim.eventq().size(), 1u);
    EXPECT_EQ(sim.eventq().nextTick(), 2000u);
    sim.bump(1000);
    sim.service();
    EXPECT_EQ(far_fired, 0);
    EXPECT_EQ(near_fired, 1);
    EXPECT_TRUE(sim.eventq().empty());
    EXPECT_EQ(sim.eventq().nextTick(), maxTick);
}

TEST(EventQueueTest, EventDestroyedWhileScheduledLeavesNoGhost)
{
    // A per-core object (e.g. a kernel's pending IPI event) destroyed
    // at context switch or crash teardown must vanish from the queue:
    // popDue may never hand back a dangling Event*.
    Simulation sim;
    int fired = 0;
    {
        CallbackEvent doomed("doomed", [&] { ++fired; });
        sim.eventq().schedule(&doomed, 10);
        EXPECT_EQ(sim.eventq().size(), 1u);
    }
    EXPECT_TRUE(sim.eventq().empty());
    sim.bump(100);
    sim.service();
    EXPECT_EQ(fired, 0);
    // The queue is fully consistent for new work afterwards.
    CallbackEvent fresh("fresh", [&] { ++fired; });
    sim.eventq().schedule(&fresh, sim.now() + 1);
    sim.bump(10);
    sim.service();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, EventOutlivesItsDestroyedQueue)
{
    // The inverse teardown order: a crash destroys the Simulation
    // (and its queue) while component-owned events are still
    // scheduled.  Their destructors must not deschedule against the
    // dead queue.
    auto ev = std::make_unique<CallbackEvent>("orphan", [] {});
    {
        EventQueue q;
        q.schedule(ev.get(), 10);
        EXPECT_TRUE(ev->scheduled());
    }
    EXPECT_FALSE(ev->scheduled());
    ev.reset();  // must not touch the dead queue

    // And a queue that died with pending events fires none of them.
    CallbackEvent still("still", [] {});
    {
        EventQueue q;
        q.schedule(&still, 10);
    }
    EXPECT_FALSE(still.scheduled());
}

TEST(EventQueueTest, MatchesAReferenceOrderUnderRandomChurn)
{
    // Differential check against a reference set ordered by (when,
    // priority, schedule order): a seeded mix of schedule, deschedule,
    // timer start/stop/fireNow, destroy-while-scheduled, clear and
    // pops over 16 events whose ticks and priorities collide.  After
    // every operation the pop order, nextTick() and size() must match.
    constexpr std::size_t slots = 16;
    const Event::Priority prios[] = {Event::Priority::ckpt,
                                     Event::Priority::sched,
                                     Event::Priority::deflt};
    // (when, priority, seq, slot)
    using Key = std::tuple<Tick, int, std::uint64_t, std::size_t>;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        Simulation sim;
        EventQueue &q = sim.eventq();
        Random rng(seed);
        std::set<Key> ref;
        std::uint64_t seq = 0;
        std::vector<std::unique_ptr<PeriodicEvent>> evs(slots);
        std::vector<Key> keyOf(slots);
        std::vector<bool> queued(slots), running(slots);
        const auto prioOf = [&](std::size_t s) { return prios[s % 3]; };
        const auto make = [&](std::size_t s) {
            evs[s] = std::make_unique<PeriodicEvent>(
                "e" + std::to_string(s), prioOf(s), sim, [] {});
            queued[s] = running[s] = false;
        };
        const auto refAdd = [&](std::size_t s, Tick when) {
            keyOf[s] = Key{when, static_cast<int>(prioOf(s)), seq++, s};
            ref.insert(keyOf[s]);
            queued[s] = true;
        };
        const auto refDrop = [&](std::size_t s) {
            if (queued[s])
                ref.erase(keyOf[s]);
            queued[s] = false;
        };
        for (std::size_t s = 0; s < slots; ++s)
            make(s);

        for (int step = 0; step < 2000; ++step) {
            SCOPED_TRACE(step);
            const std::size_t s = rng.uniform(slots);
            PeriodicEvent &ev = *evs[s];
            switch (rng.uniform(8)) {
              case 0:
              case 1:
                if (!queued[s]) {
                    const Tick when = sim.now() + rng.uniform(4);
                    q.schedule(&ev, when);
                    refAdd(s, when);
                }
                break;
              case 2:
                q.deschedule(&ev);
                refDrop(s);
                break;
              case 3:
                if (!running[s] && !queued[s]) {
                    const Tick period = 1 + rng.uniform(3);
                    ev.start(period);
                    running[s] = true;
                    refAdd(s, sim.now() + period);
                }
                break;
              case 4:
                if (running[s]) {
                    ev.fireNow();
                    refDrop(s);
                    refAdd(s, sim.now());
                } else {
                    ev.stop();
                    EXPECT_FALSE(ev.running());
                }
                break;
              case 5:
                if (running[s]) {
                    ev.stop();
                    running[s] = false;
                    refDrop(s);
                }
                break;
              case 6:
                if (rng.uniform(16) == 0) {
                    q.clear();
                    ref.clear();
                    queued.assign(slots, false);
                } else {
                    evs[s].reset();  // deschedules itself
                    refDrop(s);
                    make(s);
                }
                break;
              case 7:
                sim.bump(rng.uniform(3));
                while (Event *popped = q.popDue(sim.now())) {
                    ASSERT_FALSE(ref.empty());
                    const Key first = *ref.begin();
                    ASSERT_LE(std::get<0>(first), sim.now());
                    ASSERT_EQ(popped->name(),
                              evs[std::get<3>(first)]->name());
                    EXPECT_FALSE(popped->scheduled());
                    ref.erase(ref.begin());
                    queued[std::get<3>(first)] = false;
                }
                ASSERT_TRUE(ref.empty() ||
                            std::get<0>(*ref.begin()) > sim.now());
                break;
            }
            ASSERT_EQ(q.size(), ref.size());
            ASSERT_EQ(q.empty(), ref.empty());
            ASSERT_EQ(q.nextTick(),
                      ref.empty() ? maxTick : std::get<0>(*ref.begin()));
            for (std::size_t i = 0; i < slots; ++i)
                ASSERT_EQ(evs[i]->scheduled(), queued[i]) << i;
        }
    }
}

TEST(PeriodicEventTest, RearmsOnePeriodAfterTheBodyEnds)
{
    // A body that bumps time (a checkpoint's NVM writes) pushes the
    // next firing out: the period runs from the body's end.
    Simulation sim;
    std::vector<Tick> fired;
    PeriodicEvent timer("t", Event::Priority::deflt, sim, [&] {
        fired.push_back(sim.now());
        sim.bump(30);
    });
    timer.start(100);
    EXPECT_TRUE(timer.running());
    EXPECT_EQ(timer.when(), 100u);
    sim.bump(100);
    sim.service();
    EXPECT_EQ(fired, (std::vector<Tick>{100}));
    EXPECT_EQ(timer.when(), 230u);
    sim.bump(100);
    sim.service();
    EXPECT_EQ(fired, (std::vector<Tick>{100, 230}));
    EXPECT_EQ(timer.when(), 360u);
}

TEST(PeriodicEventTest, StopInsideTheBodyPreventsTheRearm)
{
    Simulation sim;
    int fired = 0;
    PeriodicEvent *self = nullptr;
    PeriodicEvent timer("t", Event::Priority::deflt, sim, [&] {
        if (++fired == 2)
            self->stop();
    });
    self = &timer;
    timer.start(10);
    for (int step = 0; step < 10; ++step) {
        sim.bump(10);
        sim.service();
    }
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(timer.running());
    EXPECT_FALSE(timer.scheduled());
    EXPECT_TRUE(sim.eventq().empty());
}

TEST(PeriodicEventTest, ThrowingBodyLeavesTheTimerUnarmed)
{
    // A crash site inside the body throws PowerLoss through process():
    // the re-arm after the body never runs.
    struct Boom
    {};
    Simulation sim;
    PeriodicEvent timer("t", Event::Priority::deflt, sim,
                        [] { throw Boom{}; });
    timer.start(10);
    sim.bump(10);
    EXPECT_THROW(sim.service(), Boom);
    EXPECT_FALSE(timer.scheduled());
    EXPECT_TRUE(sim.eventq().empty());
}

TEST(PeriodicEventTest, FireNowReplacesThePendingFiring)
{
    Simulation sim;
    std::vector<Tick> fired;
    PeriodicEvent timer("t", Event::Priority::deflt, sim,
                        [&] { fired.push_back(sim.now()); });
    timer.start(100);
    sim.bump(40);
    timer.fireNow();
    EXPECT_EQ(timer.when(), 40u);
    EXPECT_EQ(sim.eventq().size(), 1u);
    sim.service();
    EXPECT_EQ(fired, (std::vector<Tick>{40}));
    // The period restarts from the early firing; the replaced one at
    // tick 100 is gone.
    sim.bump(60);
    sim.service();
    EXPECT_EQ(fired, (std::vector<Tick>{40}));
    sim.bump(40);
    sim.service();
    EXPECT_EQ(fired, (std::vector<Tick>{40, 140}));
}

TEST(PeriodicEventTest, FireNowOnAStoppedTimerIsFatal)
{
    setErrorsThrow(true);
    Simulation sim;
    PeriodicEvent timer("t", Event::Priority::deflt, sim, [] {});
    EXPECT_THROW(timer.fireNow(), SimError);
    timer.start(10);
    timer.stop();
    EXPECT_THROW(timer.fireNow(), SimError);
    setErrorsThrow(false);
}

TEST(PeriodicEventTest, SetPeriodTakesEffectAtTheNextRearm)
{
    Simulation sim;
    std::vector<Tick> fired;
    PeriodicEvent *self = nullptr;
    PeriodicEvent timer("t", Event::Priority::deflt, sim, [&] {
        fired.push_back(sim.now());
        if (fired.size() == 2)
            self->setPeriod(50);
    });
    self = &timer;
    timer.start(10);
    timer.setPeriod(20);  // the pending firing at 10 stays put
    EXPECT_EQ(timer.when(), 10u);
    for (int step = 0; step < 20; ++step) {
        sim.bump(10);
        sim.service();
    }
    EXPECT_EQ(fired, (std::vector<Tick>{10, 30, 80, 130, 180}));
}

TEST(PeriodicEventTest, SameTickFiresByPriorityThenArmingOrder)
{
    Simulation sim;
    std::vector<int> order;
    PeriodicEvent late("late", Event::Priority::scrub, sim,
                       [&] { order.push_back(1); });
    PeriodicEvent first("first", Event::Priority::ckpt, sim,
                        [&] { order.push_back(2); });
    PeriodicEvent second("second", Event::Priority::ckpt, sim,
                         [&] { order.push_back(3); });
    late.start(100);
    second.start(100);
    first.start(100);
    sim.bump(100);
    sim.service();
    EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
    // Re-arms happen in firing order, so the next round repeats it.
    sim.bump(100);
    sim.service();
    EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 3, 2, 1}));
}

TEST(PeriodicEventTest, StartWhileRunningKeepsThePendingFiring)
{
    Simulation sim;
    PeriodicEvent timer("t", Event::Priority::deflt, sim, [] {});
    timer.start(100);
    sim.bump(30);
    timer.start(10);
    EXPECT_EQ(timer.when(), 100u);
    timer.stop();
    timer.stop();
    EXPECT_FALSE(timer.running());
    timer.start(10);
    EXPECT_EQ(timer.when(), 40u);
}

TEST(ClockDomainTest, Conversions)
{
    const auto clk = ClockDomain::fromMHz(3000);  // 3 GHz
    EXPECT_EQ(clk.period(), 333u);  // ps, truncated
    EXPECT_EQ(clk.cyclesToTicks(3), 999u);
    EXPECT_EQ(clk.ticksToCycles(999), 3u);
    EXPECT_EQ(clk.ticksToCycles(1000), 4u);  // rounds up
}

TEST(SimulationTest, BumpToOnlyMovesForward)
{
    Simulation sim;
    sim.bump(100);
    sim.bumpTo(50);
    EXPECT_EQ(sim.now(), 100u);
    sim.bumpTo(200);
    EXPECT_EQ(sim.now(), 200u);
}

} // namespace
} // namespace kindle::sim
