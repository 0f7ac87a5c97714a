#include "base/stats.hh"

namespace kindle::statistics
{

void
StatGroup::checkNameFree(const std::string &stat_name) const
{
    const char *kind = nullptr;
    if (scalars.count(stat_name))
        kind = "scalar";
    else if (gauges.count(stat_name))
        kind = "gauge";
    else if (dists.count(stat_name))
        kind = "distribution";
    else if (hists.count(stat_name))
        kind = "histogram";
    if (kind) {
        kindle_fatal("stat {}.{} already registered as a {}", _name,
                     stat_name, kind);
    }
}

Scalar &
StatGroup::addScalar(const std::string &stat_name, const std::string &desc)
{
    checkNameFree(stat_name);
    auto [it, inserted] = scalars.try_emplace(stat_name);
    (void)inserted;
    it->second.desc = desc;
    return it->second.stat;
}

Gauge &
StatGroup::addGauge(const std::string &stat_name, const std::string &desc)
{
    checkNameFree(stat_name);
    auto [it, inserted] = gauges.try_emplace(stat_name);
    (void)inserted;
    it->second.desc = desc;
    return it->second.stat;
}

Distribution &
StatGroup::addDistribution(const std::string &stat_name,
                           const std::string &desc)
{
    checkNameFree(stat_name);
    auto [it, inserted] = dists.try_emplace(stat_name);
    (void)inserted;
    it->second.desc = desc;
    return it->second.stat;
}

Histogram &
StatGroup::addHistogram(const std::string &stat_name,
                        const std::string &desc)
{
    checkNameFree(stat_name);
    auto [it, inserted] = hists.try_emplace(stat_name);
    (void)inserted;
    it->second.desc = desc;
    return it->second.stat;
}

void
StatGroup::addChild(StatGroup &child)
{
    children.push_back(&child);
}

double
StatGroup::scalarValue(const std::string &stat_name) const
{
    // Dotted names descend into child groups: "child.stat".
    const auto dot = stat_name.find('.');
    if (dot != std::string::npos) {
        const std::string head = stat_name.substr(0, dot);
        for (const auto *c : children) {
            if (c->_name == head)
                return c->scalarValue(stat_name.substr(dot + 1));
        }
        kindle_fatal("no child stat group named {}.{}", _name, head);
    }
    const auto it = scalars.find(stat_name);
    if (it == scalars.end())
        kindle_fatal("no scalar stat named {}.{}", _name, stat_name);
    return it->second.stat.value();
}

double
StatGroup::gaugeValue(const std::string &stat_name) const
{
    const auto it = gauges.find(stat_name);
    if (it == gauges.end())
        kindle_fatal("no gauge stat named {}.{}", _name, stat_name);
    return it->second.stat.value();
}

const Distribution &
StatGroup::distribution(const std::string &stat_name) const
{
    const auto it = dists.find(stat_name);
    if (it == dists.end())
        kindle_fatal("no distribution stat named {}.{}", _name, stat_name);
    return it->second.stat;
}

const Histogram &
StatGroup::histogram(const std::string &stat_name) const
{
    const auto it = hists.find(stat_name);
    if (it == hists.end())
        kindle_fatal("no histogram stat named {}.{}", _name, stat_name);
    return it->second.stat;
}

bool
StatGroup::hasScalar(const std::string &stat_name) const
{
    return scalars.count(stat_name) != 0;
}

void
StatGroup::accept(StatVisitor &visitor) const
{
    visitor.beginGroup(_name, _desc);
    for (const auto &[k, e] : scalars)
        visitor.visitScalar(k, e.desc, e.stat);
    for (const auto &[k, e] : gauges)
        visitor.visitGauge(k, e.desc, e.stat);
    for (const auto &[k, e] : dists)
        visitor.visitDistribution(k, e.desc, e.stat);
    for (const auto &[k, e] : hists)
        visitor.visitHistogram(k, e.desc, e.stat);
    for (const auto *c : children)
        c->accept(visitor);
    visitor.endGroup();
}

// ---------------------------------------------------------------------
// StatSnapshot

StatSnapshot
StatSnapshot::capture(const StatGroup &root)
{
    StatSnapshot snap;
    Builder builder(snap);
    root.accept(builder);
    return snap;
}

std::string
StatSnapshot::Builder::joined(const std::string &leaf) const
{
    return stack.empty() ? leaf : stack.back() + "." + leaf;
}

void
StatSnapshot::Builder::put(std::string path, double value)
{
    const auto [it, fresh] =
        snap.values.try_emplace(std::move(path), value);
    kindle_assert(fresh, "stat {} written twice into one snapshot",
                  it->first);
}

void
StatSnapshot::Builder::beginGroup(const std::string &name,
                                  const std::string &desc)
{
    (void)desc;
    stack.push_back(stack.empty() && !rollupRoot.empty() ? rollupRoot
                                                         : joined(name));
}

void
StatSnapshot::Builder::endGroup()
{
    stack.pop_back();
}

void
StatSnapshot::Builder::visitScalar(const std::string &name,
                                   const std::string &desc,
                                   const Scalar &stat)
{
    (void)desc;
    if (rollupRoot.empty())
        put(joined(name), stat.value());
    else
        snap.values[joined(name)] += stat.value();
}

void
StatSnapshot::Builder::visitGauge(const std::string &name,
                                  const std::string &desc,
                                  const Gauge &stat)
{
    (void)desc;
    if (rollupRoot.empty())
        put(joined(name), stat.value());
}

void
StatSnapshot::Builder::visitDistribution(const std::string &name,
                                         const std::string &desc,
                                         const Distribution &stat)
{
    (void)desc;
    if (!rollupRoot.empty())
        return;
    const std::string path = joined(name);
    put(path + "::count", static_cast<double>(stat.count()));
    put(path + "::sum", stat.sum());
    put(path + "::min", stat.min());
    put(path + "::max", stat.max());
    put(path + "::mean", stat.mean());
}

void
StatSnapshot::Builder::visitHistogram(const std::string &name,
                                      const std::string &desc,
                                      const Histogram &stat)
{
    (void)desc;
    if (!rollupRoot.empty())
        return;
    const std::string path = joined(name);
    put(path + "::count", static_cast<double>(stat.count()));
    put(path + "::sum", stat.sum());
    put(path + "::min", stat.min());
    put(path + "::max", stat.max());
    put(path + "::mean", stat.mean());
    // One entry per non-empty bucket.
    for (unsigned i = 0; i < Histogram::numBuckets; ++i) {
        if (stat.bucketCount(i) == 0)
            continue;
        put(path + "::b" + std::to_string(i),
            static_cast<double>(stat.bucketCount(i)));
    }
}

const double *
StatSnapshot::find(const std::string &path) const
{
    const auto it = values.find(path);
    return it == values.end() ? nullptr : &it->second;
}

bool
StatSnapshot::has(const std::string &path) const
{
    return find(path) != nullptr;
}

double
StatSnapshot::get(const std::string &path) const
{
    const double *v = find(path);
    if (!v)
        kindle_fatal("no stat snapshot entry named {}", path);
    return *v;
}

double
StatSnapshot::getOr(const std::string &path, double fallback) const
{
    const double *v = find(path);
    return v ? *v : fallback;
}

} // namespace kindle::statistics
