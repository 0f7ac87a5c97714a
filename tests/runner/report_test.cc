#include <gtest/gtest.h>

#include <sstream>

#include "base/stats.hh"
#include "runner/report.hh"

namespace kindle::runner
{
namespace
{

RunResult
fakeResult(const std::string &name)
{
    statistics::StatGroup g("ssp");
    g.addScalar("intervalCommits", "") += 12;
    g.addScalar("pagesCopied", "") += 340;
    statistics::StatGroup other("persist");
    other.addScalar("checkpoints", "") += 3;

    RunResult r;
    r.name = name;
    r.axes = {{"benchmark", "gapbs_pr"}, {"interval", "1ms"}};
    r.ticks = 123456789;
    r.wallMs = 41.7;
    statistics::StatSnapshot::Builder builder(r.stats);
    g.accept(builder);
    other.accept(builder);
    r.ok = true;
    return r;
}

TEST(BenchReportTest, WritesSchemaFields)
{
    BenchReport report("unit_bench", 4);
    report.add(fakeResult("gapbs_pr/1ms"));

    RunResult failed;
    failed.name = "broken/point";
    failed.error = "workload exploded";
    report.add(failed);

    std::ostringstream os;
    report.writeJson(os);
    const std::string out = os.str();

    EXPECT_NE(out.find("\"bench\": \"unit_bench\""),
              std::string::npos);
    EXPECT_NE(out.find("\"schema_version\": 1"), std::string::npos);
    EXPECT_NE(out.find("\"jobs\": 4"), std::string::npos);
    EXPECT_NE(out.find("\"name\": \"gapbs_pr/1ms\""),
              std::string::npos);
    EXPECT_NE(out.find("\"benchmark\": \"gapbs_pr\""),
              std::string::npos);
    EXPECT_NE(out.find("\"ticks\": 123456789"), std::string::npos);
    EXPECT_NE(out.find("\"ssp.intervalCommits\": 12"),
              std::string::npos);
    // The failed point records its error and no stats.
    EXPECT_NE(out.find("\"ok\": false"), std::string::npos);
    EXPECT_NE(out.find("\"error\": \"workload exploded\""),
              std::string::npos);
}

TEST(BenchReportTest, StatPrefixFilterLimitsExport)
{
    BenchReport report("filtered", 1);
    report.add(fakeResult("p0"));
    report.keepStatPrefixes({"persist."});

    std::ostringstream os;
    report.writeJson(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"persist.checkpoints\": 3"),
              std::string::npos);
    EXPECT_EQ(out.find("ssp.intervalCommits"), std::string::npos);
}

TEST(BenchReportTest, JsonIsReproducibleModuloWallClock)
{
    // Two reports over identical results serialize identically when
    // wall_ms matches — the schema has no other host-dependent field.
    BenchReport a("same", 1);
    BenchReport b("same", 1);
    RunResult r = fakeResult("p");
    r.wallMs = 0;
    a.add(r);
    b.add(r);

    std::ostringstream osa, osb;
    a.writeJson(osa);
    b.writeJson(osb);
    EXPECT_EQ(osa.str(), osb.str());
}

} // namespace
} // namespace kindle::runner
