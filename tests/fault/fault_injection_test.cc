/**
 * @file
 * Unit tests for the crash-point fault injector: plan arming, trigger
 * semantics, observe-only counting, and probe dispatch through the
 * thread-local registration.
 */

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.hh"
#include "trace/trace.hh"

namespace kindle::fault
{
namespace
{

std::unique_ptr<CrashInjector>
makeInjector(FaultPlan plan, Tick now = 1000)
{
    auto inj = std::make_unique<CrashInjector>(std::move(plan),
                                               [now] { return now; });
    inj->activate();
    return inj;
}

TEST(FaultPlanTest, ArmedRequiresATrigger)
{
    EXPECT_FALSE(FaultPlan{}.armed());
    FaultPlan by_site;
    by_site.site = "ckpt.after_commit";
    EXPECT_TRUE(by_site.armed());
    FaultPlan by_write;
    by_write.atNthDurableWrite = 3;
    EXPECT_TRUE(by_write.armed());
    FaultPlan by_tick;
    by_tick.atTick = 500;
    EXPECT_TRUE(by_tick.armed());
}

TEST(FaultInjectionTest, SiteTriggerFiresAtNthOccurrence)
{
    FaultPlan plan;
    plan.site = "redo.after_append";
    plan.occurrence = 3;
    auto inj = makeInjector(plan);

    inj->site("redo.after_append");
    inj->site("some.other_site");
    inj->site("redo.after_append");
    EXPECT_FALSE(inj->fired());
    try {
        inj->site("redo.after_append");
        FAIL() << "third occurrence must fire";
    } catch (const PowerLoss &loss) {
        EXPECT_EQ(loss.site(), "redo.after_append");
        EXPECT_EQ(loss.tick(), 1000u);
    }
    EXPECT_TRUE(inj->fired());
    EXPECT_EQ(inj->firedSite(), "redo.after_append");
    // A fired injector is spent: further probes are inert.
    inj->site("redo.after_append");
    EXPECT_EQ(inj->hitsOf("redo.after_append"), 3u);
}

TEST(FaultInjectionTest, DurableWriteTriggerFires)
{
    FaultPlan plan;
    plan.atNthDurableWrite = 2;
    auto inj = makeInjector(plan);
    inj->durableWrite(10);
    EXPECT_FALSE(inj->fired());
    EXPECT_THROW(inj->durableWrite(20), PowerLoss);
    EXPECT_EQ(inj->durableWrites(), 2u);
}

TEST(FaultInjectionTest, TickTriggerFiresAtFirstProbeAtOrAfter)
{
    FaultPlan plan;
    plan.atTick = 1000;
    CrashInjector early(plan, [] { return Tick{999}; });
    early.activate();
    early.site("a");
    EXPECT_FALSE(early.fired());

    CrashInjector late(plan, [] { return Tick{1000}; });
    late.activate();
    EXPECT_THROW(late.site("a"), PowerLoss);
}

TEST(FaultInjectionTest, UnarmedInjectorObservesWithoutFiring)
{
    auto inj = makeInjector(FaultPlan{});
    for (int i = 0; i < 5; ++i)
        inj->site("pt.after_store");
    inj->durableWrite(1);
    EXPECT_FALSE(inj->fired());
    EXPECT_EQ(inj->hitsOf("pt.after_store"), 5u);
    EXPECT_EQ(inj->durableWrites(), 1u);
    EXPECT_EQ(inj->allHits().size(), 1u);
}

TEST(FaultInjectionTest, InactiveInjectorIgnoresProbes)
{
    FaultPlan plan;
    plan.site = "x";
    CrashInjector inj(plan, [] { return Tick{0}; });
    inj.site("x");
    EXPECT_FALSE(inj.fired());
    EXPECT_EQ(inj.hitsOf("x"), 0u);
}

TEST(FaultInjectionTest, ObserverSeesEveryHitIncludingTheFatalOne)
{
    FaultPlan plan;
    plan.site = "slot.commit_pre_fence";
    plan.occurrence = 2;
    auto inj = makeInjector(plan);
    std::vector<std::uint64_t> seen;
    inj->setObserver([&](const std::string &name, std::uint64_t count) {
        if (name == "slot.commit_pre_fence")
            seen.push_back(count);
    });
    inj->site("slot.commit_pre_fence");
    EXPECT_THROW(inj->site("slot.commit_pre_fence"), PowerLoss);
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2}));
}

TEST(CrashSiteTableTest, BuffersWithOneTextShareOneSite)
{
    // Two distinct buffers holding one name: a probe may pass either.
    char first[] = "dup.site";
    char second[] = "dup.site";
    ASSERT_NE(static_cast<void *>(first), static_cast<void *>(second));

    FaultPlan plan;
    plan.site = "dup.site";
    plan.occurrence = 4;
    auto inj = makeInjector(plan);
    std::set<const std::string *> names;
    std::vector<std::uint64_t> counts;
    inj->setObserver([&](const std::string &name, std::uint64_t count) {
        if (name == "dup.site") {
            names.insert(&name);
            counts.push_back(count);
        }
    });

    inj->site(first);
    inj->site(second);
    inj->site("other.site");
    inj->site(second);
    EXPECT_FALSE(inj->fired());
    EXPECT_EQ(inj->hitsOf("dup.site"), 3u);
    // The plan counts hits through both buffers: the fourth fires.
    EXPECT_THROW(inj->site(first), PowerLoss);
    EXPECT_EQ(inj->firedSite(), "dup.site");
    EXPECT_EQ(counts, (std::vector<std::uint64_t>{1, 2, 3, 4}));
    // One interned name reaches the observer on every hit.
    EXPECT_EQ(names.size(), 1u);

    static_assert(std::is_same_v<decltype(inj->allHits()),
                                 std::map<std::string, std::uint64_t>>);
    EXPECT_EQ(inj->allHits(),
              (std::map<std::string, std::uint64_t>{{"dup.site", 4},
                                                    {"other.site", 1}}));

    // rearm() clears the counts, not the sites.
    inj->rearm(FaultPlan{});
    EXPECT_EQ(inj->hitsOf("dup.site"), 0u);
    EXPECT_TRUE(inj->allHits().empty());
    inj->site(second);
    EXPECT_EQ(inj->allHits(),
              (std::map<std::string, std::uint64_t>{{"dup.site", 1}}));
    EXPECT_EQ(names.size(), 1u);

    // A buffer rewritten with another name counts for that name.
    std::strcpy(first, "new.site");
    inj->site(first);
    EXPECT_EQ(inj->hitsOf("new.site"), 1u);
    EXPECT_EQ(inj->hitsOf("dup.site"), 1u);
}

TEST(CrashSiteTableTest, ManyPointersGrowTheTable)
{
    auto inj = makeInjector(FaultPlan{});
    std::vector<std::string> names;
    for (int i = 0; i < 300; ++i)
        names.push_back("grow.site." + std::to_string(i % 100));
    for (int round = 0; round < 2; ++round)
        for (const std::string &n : names)
            inj->site(n.c_str());
    const auto hits = inj->allHits();
    ASSERT_EQ(hits.size(), 100u);
    for (const auto &[name, count] : hits)
        EXPECT_EQ(count, 6u) << name;
}

TEST(CrashSiteTableTest, RingRecordsOutliveTheNamesTheyWereFiredWith)
{
    // The names come from heap buffers freed right after each probe,
    // and the injector is rearmed between the two crashes; dumping the
    // ring afterwards must read no freed storage (ASan checks this).
    Tick clock = 10;
    trace::TraceParams params;
    params.ringDepth = 16;
    trace::TraceSink sink(params, [&clock] { return clock; });
    FaultPlan plan;
    plan.site = "heap.site.named.past.the.small.string.buffer";
    CrashInjector inj(plan, [&clock] { return clock; });
    inj.activate();
    trace::ProbeScope scope({.sink = &sink, .injector = &inj});

    {
        const auto name = std::make_unique<std::string>(plan.site);
        EXPECT_THROW(crashSite(name->c_str()), PowerLoss);
    }
    FaultPlan second;
    second.atNthDurableWrite = 2;
    inj.rearm(second);
    {
        const auto name = std::make_unique<std::string>(
            "another.heap.site.named.past.the.small.string.buffer");
        crashSite(name->c_str());
    }
    onDurableNvmWrite(clock);
    EXPECT_THROW(onDurableNvmWrite(clock), PowerLoss);

    std::ostringstream os;
    sink.writeFlightRecorder(os, trace::FlightContext{});
    const std::string out = os.str();
    for (const char *want :
         {"\"name\": \"heap.site.named.past.the.small.string.buffer\"",
          "\"detail\": \"site=heap.site.named.past.the.small.string."
          "buffer\"",
          "\"name\": \"another.heap.site.named.past.the.small.string."
          "buffer\"",
          "\"detail\": \"site=nvm.durable_write#2\""}) {
        EXPECT_NE(out.find(want), std::string::npos) << want;
    }
    EXPECT_EQ(sink.ringSize(), 4u);
}

TEST(FaultRoutingTest, ScopeRoutesProbesAndUnwinds)
{
    EXPECT_EQ(trace::probes().injector, nullptr);
    crashSite("free.floating");  // probes without a scope are no-ops

    auto inj = makeInjector(FaultPlan{});
    {
        trace::ProbeScope scope({.injector = inj.get()});
        EXPECT_EQ(trace::probes().injector, inj.get());
        crashSite("a.site");
        onDurableNvmWrite(7);
    }
    EXPECT_EQ(trace::probes().injector, nullptr);
    EXPECT_EQ(inj->hitsOf("a.site"), 1u);
    EXPECT_EQ(inj->durableWrites(), 1u);
}

TEST(FaultRoutingTest, NewestScopeWinsAndNullShadows)
{
    auto outer = makeInjector(FaultPlan{});
    auto inner = makeInjector(FaultPlan{});
    trace::ProbeScope outer_scope({.injector = outer.get()});
    {
        trace::ProbeScope inner_scope({.injector = inner.get()});
        crashSite("s");
        EXPECT_EQ(trace::probes().injector, inner.get());
    }
    {
        // A system without fault config registers no injector,
        // shadowing the outer one instead of leaking probes to it.
        trace::ProbeScope null_scope({});
        crashSite("s");
        EXPECT_EQ(trace::probes().injector, nullptr);
    }
    crashSite("s");
    EXPECT_EQ(outer->hitsOf("s"), 1u);
    EXPECT_EQ(inner->hitsOf("s"), 1u);
}

TEST(FaultInventoryTest, KnownSitesCoverTheInstrumentedProtocols)
{
    const auto &sites = crashSiteCatalog();
    EXPECT_GE(sites.size(), 16u);
    const auto has = [&](std::string_view name) {
        return std::any_of(sites.begin(), sites.end(),
                           [&](const CrashSiteInfo &info) {
                               return name == info.name;
                           });
    };
    EXPECT_TRUE(has("ckpt.after_commit"));
    EXPECT_TRUE(has("redo.append_pre_fence"));
    EXPECT_TRUE(has("pt.after_clwb"));
    EXPECT_TRUE(has("slot.mid_working_write"));
    EXPECT_TRUE(has("alloc.bitmap_pre_fence"));
    EXPECT_TRUE(has("hscc.after_copy"));
}

} // namespace
} // namespace kindle::fault
