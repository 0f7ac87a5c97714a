#include "fault/fault.hh"

#include "base/logging.hh"
#include "trace/trace.hh"

namespace kindle::fault
{

namespace
{

/** One string per catalog site, built once: the observer's argument. */
const std::array<std::string, crashSites.size()> &
siteNames()
{
    static const auto names = [] {
        std::array<std::string, crashSites.size()> out;
        for (SiteId id = 0; id < crashSites.size(); ++id)
            out[id] = crashSites[id].name;
        return out;
    }();
    return names;
}

/** The site named @p name; fatal if the catalog has none. */
SiteId
catalogSite(const std::string &name)
{
    const std::optional<SiteId> id = findSite(name);
    if (!id)
        kindle_fatal("no crash site named '{}' (see --list-crash-sites)",
                     name);
    return *id;
}

} // namespace

CrashInjector::CrashInjector(FaultPlan plan, std::function<Tick()> now_fn)
    : nowFn(std::move(now_fn)),
      statGroup("fault", "crash-point fault injection"),
      siteHits(statGroup.addScalar("siteHits",
                                   "named crash-site probes reached")),
      durableWriteStat(statGroup.addScalar(
          "durableWrites", "durable NVM writes observed")),
      crashesInjected(statGroup.addScalar(
          "crashesInjected", "power-loss crashes fired by the plan"))
{
    kindle_assert(nowFn, "CrashInjector needs a clock");
    setPlan(std::move(plan));
}

void
CrashInjector::setPlan(FaultPlan plan)
{
    planSite.reset();
    if (!plan.site.empty())
        planSite = catalogSite(plan.site);
    _plan = std::move(plan);
}

void
CrashInjector::rearm(FaultPlan plan)
{
    setPlan(std::move(plan));
    _fired = false;
    _firedSite.clear();
    _durableWrites = 0;
    hits.fill(0);
    active = true;
}

std::uint64_t
CrashInjector::hitsOf(const std::string &name) const
{
    return hits[catalogSite(name)];
}

std::map<std::string, std::uint64_t>
CrashInjector::allHits() const
{
    std::map<std::string, std::uint64_t> out;
    for (SiteId id = 0; id < hits.size(); ++id) {
        if (hits[id] != 0)
            out.emplace(crashSites[id].name, hits[id]);
    }
    return out;
}

void
CrashInjector::fireAt(SiteId id)
{
    KINDLE_TRACE_INSTANT_ARGS(fault, "crash.fire", "site={}",
                              crashSites[id].name);
    fire(crashSites[id].name);
}

void
CrashInjector::fireAtDurableWrite()
{
    KINDLE_TRACE_INSTANT_ARGS(fault, "crash.fire",
                              "site=nvm.durable_write#{}", _durableWrites);
    fire("nvm.durable_write#" + std::to_string(_durableWrites));
}

void
CrashInjector::fire(std::string name)
{
    _fired = true;
    _firedSite = name;
    ++crashesInjected;
    throw PowerLoss(std::move(name), nowFn());
}

void
CrashInjector::site(SiteId id)
{
    if (!active || _fired)
        return;
    kindle_assert(id < hits.size(), "crash site {} is not in the catalog",
                  id);
    // Every protocol probe doubles as a flight-recorder breadcrumb:
    // the ring's tail is the exact step sequence leading into a crash.
    KINDLE_TRACE_INSTANT(fault, crashSites[id].name);
    ++siteHits;
    const std::uint64_t count = ++hits[id];
    if (observer)
        observer(siteNames()[id], count);
    if (_plan.atTick != 0 && nowFn() >= _plan.atTick)
        fireAt(id);
    if (planSite == id && count == _plan.occurrence)
        fireAt(id);
}

void
CrashInjector::durableWrite(Tick now)
{
    if (!active || _fired)
        return;
    ++durableWriteStat;
    ++_durableWrites;
    if (_plan.atNthDurableWrite != 0 &&
        _durableWrites == _plan.atNthDurableWrite) {
        fireAtDurableWrite();
    }
    if (_plan.atTick != 0 && now >= _plan.atTick)
        fireAtDurableWrite();
}

void
crashSite(SiteId id)
{
    if (CrashInjector *inj = trace::probes().injector)
        inj->site(id);
}

void
onDurableNvmWrite(Tick now)
{
    if (CrashInjector *inj = trace::probes().injector)
        inj->durableWrite(now);
}

} // namespace kindle::fault
