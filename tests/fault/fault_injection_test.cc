/**
 * @file
 * Unit tests for the crash-point fault injector: plan arming, trigger
 * semantics, observe-only counting, and probe dispatch through the
 * thread-local registration.
 */

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "base/logging.hh"
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

TEST(FaultPlanTest, NamesOutsideTheCatalogAreFatal)
{
    EXPECT_EQ(findSite("no.such.site"), std::nullopt);
    EXPECT_EQ(findSite("ckpt"), std::nullopt);  // a prefix is no name
    EXPECT_EQ(findSite("ckpt.after_commit"), siteId("ckpt.after_commit"));

    setErrorsThrow(true);
    FaultPlan unknown;
    unknown.site = "no.such.site";
    EXPECT_THROW(CrashInjector(unknown, [] { return Tick{0}; }), SimError);

    auto inj = makeInjector(FaultPlan{});
    EXPECT_THROW(inj->rearm(unknown), SimError);
    EXPECT_THROW(inj->hitsOf("no.such.site"), SimError);
    EXPECT_THROW(inj->hitsOf(""), SimError);
    EXPECT_THROW(inj->site(crashSites.size()), SimError);
    setErrorsThrow(false);

    // An empty site is "no site trigger", not an unknown name.
    inj->rearm(FaultPlan{});
    EXPECT_EQ(inj->hitsOf("ckpt.after_commit"), 0u);
}

TEST(FaultInjectionTest, SiteTriggerFiresAtNthOccurrence)
{
    FaultPlan plan;
    plan.site = "redo.after_append";
    plan.occurrence = 3;
    auto inj = makeInjector(plan);

    inj->site(siteId("redo.after_append"));
    inj->site(siteId("ckpt.after_commit"));
    inj->site(siteId("redo.after_append"));
    EXPECT_FALSE(inj->fired());
    try {
        inj->site(siteId("redo.after_append"));
        FAIL() << "third occurrence must fire";
    } catch (const PowerLoss &loss) {
        EXPECT_EQ(loss.site(), "redo.after_append");
        EXPECT_EQ(loss.tick(), 1000u);
    }
    EXPECT_TRUE(inj->fired());
    EXPECT_EQ(inj->firedSite(), "redo.after_append");
    // A fired injector is spent: further probes are inert.
    inj->site(siteId("redo.after_append"));
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
    early.site(siteId("ckpt.complete"));
    EXPECT_FALSE(early.fired());

    CrashInjector late(plan, [] { return Tick{1000}; });
    late.activate();
    EXPECT_THROW(late.site(siteId("ckpt.complete")), PowerLoss);
}

TEST(FaultInjectionTest, UnarmedInjectorObservesWithoutFiring)
{
    auto inj = makeInjector(FaultPlan{});
    for (int i = 0; i < 5; ++i)
        inj->site(siteId("pt.after_store"));
    inj->durableWrite(1);
    EXPECT_FALSE(inj->fired());
    EXPECT_EQ(inj->hitsOf("pt.after_store"), 5u);
    EXPECT_EQ(inj->durableWrites(), 1u);
    EXPECT_EQ(inj->allHits().size(), 1u);
}

TEST(FaultInjectionTest, InactiveInjectorIgnoresProbes)
{
    FaultPlan plan;
    plan.site = "hscc.after_copy";
    CrashInjector inj(plan, [] { return Tick{0}; });
    inj.site(siteId("hscc.after_copy"));
    EXPECT_FALSE(inj.fired());
    EXPECT_EQ(inj.hitsOf("hscc.after_copy"), 0u);
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
    inj->site(siteId("slot.commit_pre_fence"));
    EXPECT_THROW(inj->site(siteId("slot.commit_pre_fence")), PowerLoss);
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2}));
}

TEST(CrashSiteTableTest, EachSiteHasOneCountAndOneName)
{
    FaultPlan plan;
    plan.site = "redo.pre_wrap";
    plan.occurrence = 4;
    auto inj = makeInjector(plan);
    std::set<const std::string *> names;
    std::vector<std::uint64_t> counts;
    inj->setObserver([&](const std::string &name, std::uint64_t count) {
        if (name == "redo.pre_wrap") {
            names.insert(&name);
            counts.push_back(count);
        }
    });

    inj->site(siteId("redo.pre_wrap"));
    inj->site(siteId("oom.pre_kill"));
    inj->site(siteId("redo.pre_wrap"));
    EXPECT_FALSE(inj->fired());
    EXPECT_EQ(inj->hitsOf("redo.pre_wrap"), 2u);
    {
        // The macro and a direct call name one site.
        trace::ProbeScope scope({.injector = inj.get()});
        KINDLE_CRASH_SITE("redo.pre_wrap");
        EXPECT_EQ(inj->hitsOf("redo.pre_wrap"), 3u);
        EXPECT_THROW(KINDLE_CRASH_SITE("redo.pre_wrap"), PowerLoss);
    }
    EXPECT_EQ(inj->firedSite(), "redo.pre_wrap");
    EXPECT_EQ(counts, (std::vector<std::uint64_t>{1, 2, 3, 4}));
    // One string per site reaches the observer on every hit.
    EXPECT_EQ(names.size(), 1u);

    static_assert(std::is_same_v<decltype(inj->allHits()),
                                 std::map<std::string, std::uint64_t>>);
    EXPECT_EQ(inj->allHits(),
              (std::map<std::string, std::uint64_t>{{"oom.pre_kill", 1},
                                                    {"redo.pre_wrap", 4}}));

    // rearm() clears the counts.
    inj->rearm(FaultPlan{});
    EXPECT_EQ(inj->hitsOf("redo.pre_wrap"), 0u);
    EXPECT_TRUE(inj->allHits().empty());
    inj->site(siteId("redo.pre_wrap"));
    EXPECT_EQ(inj->allHits(),
              (std::map<std::string, std::uint64_t>{{"redo.pre_wrap", 1}}));
    EXPECT_EQ(names.size(), 1u);
}

TEST(CrashSiteTableTest, RingRecordsOutliveTheNamesTheyWereFiredWith)
{
    // The injector is rearmed between the two crashes, one at a site
    // and one at a durable write; dumping the ring afterwards must
    // read no freed storage (ASan checks this).
    Tick clock = 10;
    trace::TraceParams params;
    params.ringDepth = 16;
    trace::TraceSink sink(params, [&clock] { return clock; });
    FaultPlan plan;
    plan.site = "recover.after_slot_restore";
    CrashInjector inj(plan, [&clock] { return clock; });
    inj.activate();
    trace::ProbeScope scope({.sink = &sink, .injector = &inj});

    EXPECT_THROW(KINDLE_CRASH_SITE("recover.after_slot_restore"),
                 PowerLoss);
    FaultPlan second;
    second.atNthDurableWrite = 2;
    inj.rearm(second);
    KINDLE_CRASH_SITE("recover.after_quarantine");
    onDurableNvmWrite(clock);
    EXPECT_THROW(onDurableNvmWrite(clock), PowerLoss);

    std::ostringstream os;
    sink.writeFlightRecorder(os, trace::FlightContext{});
    const std::string out = os.str();
    for (const char *want :
         {"\"name\": \"recover.after_slot_restore\"",
          "\"detail\": \"site=recover.after_slot_restore\"",
          "\"name\": \"recover.after_quarantine\"",
          "\"detail\": \"site=nvm.durable_write#2\""}) {
        EXPECT_NE(out.find(want), std::string::npos) << want;
    }
    EXPECT_EQ(sink.ringSize(), 4u);
}

TEST(FaultRoutingTest, ScopeRoutesProbesAndUnwinds)
{
    EXPECT_EQ(trace::probes().injector, nullptr);
    KINDLE_CRASH_SITE("core.pre_offline");  // no scope: a no-op

    auto inj = makeInjector(FaultPlan{});
    {
        trace::ProbeScope scope({.injector = inj.get()});
        EXPECT_EQ(trace::probes().injector, inj.get());
        KINDLE_CRASH_SITE("pt.after_clwb");
        onDurableNvmWrite(7);
    }
    EXPECT_EQ(trace::probes().injector, nullptr);
    EXPECT_EQ(inj->hitsOf("pt.after_clwb"), 1u);
    EXPECT_EQ(inj->hitsOf("core.pre_offline"), 0u);
    EXPECT_EQ(inj->durableWrites(), 1u);
}

TEST(FaultRoutingTest, NewestScopeWinsAndNullShadows)
{
    auto outer = makeInjector(FaultPlan{});
    auto inner = makeInjector(FaultPlan{});
    trace::ProbeScope outer_scope({.injector = outer.get()});
    {
        trace::ProbeScope inner_scope({.injector = inner.get()});
        KINDLE_CRASH_SITE("oom.pre_kill");
        EXPECT_EQ(trace::probes().injector, inner.get());
    }
    {
        // A system without fault config registers no injector,
        // shadowing the outer one instead of leaking probes to it.
        trace::ProbeScope null_scope({});
        KINDLE_CRASH_SITE("oom.pre_kill");
        EXPECT_EQ(trace::probes().injector, nullptr);
    }
    KINDLE_CRASH_SITE("oom.pre_kill");
    EXPECT_EQ(outer->hitsOf("oom.pre_kill"), 1u);
    EXPECT_EQ(inner->hitsOf("oom.pre_kill"), 1u);
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
