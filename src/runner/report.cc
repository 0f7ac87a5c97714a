#include "runner/report.hh"

#include <fstream>

#include "base/json.hh"
#include "base/logging.hh"

namespace kindle::runner
{

BenchReport::BenchReport(std::string bench_name, unsigned jobs_arg)
    : benchName(std::move(bench_name)), jobs(jobs_arg)
{}

void
BenchReport::add(const RunResult &result)
{
    points.push_back(result);
}

void
BenchReport::add(const std::vector<RunResult> &results)
{
    for (const auto &r : results)
        add(r);
}

void
BenchReport::keepStatPrefixes(std::vector<std::string> prefixes)
{
    statPrefixes = std::move(prefixes);
}

bool
BenchReport::exported(const std::string &path) const
{
    if (statPrefixes.empty())
        return true;
    for (const auto &prefix : statPrefixes) {
        if (path.compare(0, prefix.size(), prefix) == 0)
            return true;
    }
    return false;
}

void
BenchReport::writeJson(std::ostream &os) const
{
    json::Writer w(os);
    w.beginObject();
    w.keyValue("bench", benchName);
    w.keyValue("schema_version", std::uint64_t(1));
    w.keyValue("jobs", std::uint64_t(jobs));
    w.key("points");
    w.beginArray();
    for (const auto &p : points) {
        w.beginObject();
        w.keyValue("name", p.name);
        w.key("axes");
        w.beginObject();
        for (const auto &[axis, value] : p.axes)
            w.keyValue(axis, value);
        w.endObject();
        w.keyValue("ok", p.ok);
        if (!p.ok)
            w.keyValue("error", p.error);
        w.keyValue("ticks", static_cast<std::uint64_t>(p.ticks));
        if (includeWallMs)
            w.keyValue("wall_ms", p.wallMs);
        w.key("stats");
        w.beginObject();
        for (const auto &[path, value] : p.stats.entries()) {
            if (exported(path))
                w.keyValue(path, value);
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

std::string
BenchReport::writeJsonFile() const
{
    const std::string path = "./BENCH_" + benchName + ".json";
    std::ofstream out(path);
    if (!out)
        kindle_fatal("cannot open {} for writing", path);
    writeJson(out);
    return path;
}

} // namespace kindle::runner
