#include "fault/fault.hh"

#include "base/logging.hh"
#include "trace/trace.hh"

namespace kindle::fault
{

CrashInjector::CrashInjector(FaultPlan plan, std::function<Tick()> now_fn)
    : _plan(std::move(plan)),
      nowFn(std::move(now_fn)),
      aliases(64),
      statGroup("fault", "crash-point fault injection"),
      siteHits(statGroup.addScalar("siteHits",
                                   "named crash-site probes reached")),
      durableWriteStat(statGroup.addScalar(
          "durableWrites", "durable NVM writes observed")),
      crashesInjected(statGroup.addScalar(
          "crashesInjected", "power-loss crashes fired by the plan"))
{
    kindle_assert(nowFn, "CrashInjector needs a clock");
}

void
CrashInjector::rearm(FaultPlan plan)
{
    _plan = std::move(plan);
    _fired = false;
    _firedSite.clear();
    _durableWrites = 0;
    // The names stay interned: ring records still point at them.
    for (Site &s : sites)
        s.hits = 0;
    active = true;
}

namespace
{

/** Start slot of @p key in a table of @p mask + 1 slots. */
std::size_t
slotOf(const char *key, std::size_t mask)
{
    const auto bits = reinterpret_cast<std::uintptr_t>(key);
    return static_cast<std::size_t>((bits * 0x9e3779b97f4a7c15ULL) >> 32) &
           mask;
}

} // namespace

CrashInjector::Site &
CrashInjector::siteFor(const char *name)
{
    const std::size_t mask = aliases.size() - 1;
    for (std::size_t i = slotOf(name, mask);; i = (i + 1) & mask) {
        Alias &a = aliases[i];
        if (!a.key)
            return alias(name);
        if (a.key == name) {
            // A buffer reused for another name is that name's alias.
            if (a.site->name != name)
                a.site = &intern(name);
            return *a.site;
        }
    }
}

CrashInjector::Site &
CrashInjector::intern(const char *name)
{
    for (Site &s : sites) {
        if (s.name == name)
            return s;
    }
    return sites.emplace_back(Site{name, 0});
}

CrashInjector::Site &
CrashInjector::alias(const char *name)
{
    if (2 * (aliasCount + 1) > aliases.size()) {
        std::vector<Alias> old(2 * aliases.size());
        old.swap(aliases);
        for (const Alias &a : old) {
            if (!a.key)
                continue;
            std::size_t i = slotOf(a.key, aliases.size() - 1);
            while (aliases[i].key)
                i = (i + 1) & (aliases.size() - 1);
            aliases[i] = a;
        }
    }
    Site &site = intern(name);
    const std::size_t mask = aliases.size() - 1;
    std::size_t i = slotOf(name, mask);
    while (aliases[i].key)
        i = (i + 1) & mask;
    aliases[i] = {name, &site};
    ++aliasCount;
    return site;
}

std::uint64_t
CrashInjector::hitsOf(const std::string &name) const
{
    for (const Site &s : sites) {
        if (s.name == name)
            return s.hits;
    }
    return 0;
}

std::map<std::string, std::uint64_t>
CrashInjector::allHits() const
{
    std::map<std::string, std::uint64_t> out;
    for (const Site &s : sites) {
        if (s.hits != 0)
            out.emplace(s.name, s.hits);
    }
    return out;
}

void
CrashInjector::fireAt(const Site &site)
{
    // The record keeps the interned name, which outlives the ring.
    KINDLE_TRACE_INSTANT_ARGS(fault, "crash.fire", "site={}",
                              site.name.c_str());
    fire(site.name);
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
CrashInjector::site(const char *name)
{
    if (!active || _fired)
        return;
    Site &s = siteFor(name);
    // Every protocol probe doubles as a flight-recorder breadcrumb:
    // the ring's tail is the exact step sequence leading into a crash.
    KINDLE_TRACE_INSTANT(fault, s.name.c_str());
    ++siteHits;
    const std::uint64_t count = ++s.hits;
    if (observer)
        observer(s.name, count);
    if (_plan.atTick != 0 && nowFn() >= _plan.atTick)
        fireAt(s);
    if (!_plan.site.empty() && _plan.site == s.name &&
        count == _plan.occurrence) {
        fireAt(s);
    }
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
crashSite(const char *name)
{
    if (CrashInjector *inj = trace::probes().injector)
        inj->site(name);
}

void
onDurableNvmWrite(Tick now)
{
    if (CrashInjector *inj = trace::probes().injector)
        inj->durableWrite(now);
}

const std::vector<CrashSiteInfo> &
crashSiteCatalog()
{
    // Keep in sync with every KINDLE_CRASH_SITE() in the tree; the
    // crash-site parameterized test cross-checks this list by crashing
    // at each entry and asserting the probe actually fired.  The
    // descriptions feed --list-crash-sites and the DESIGN.md table.
    static const std::vector<CrashSiteInfo> sites = {
        {"ckpt.before_cpu_log", "checkpoint: before CPU redo record"},
        {"ckpt.after_log_append", "checkpoint: CPU record durable"},
        {"ckpt.after_replay", "checkpoint: metadata log replayed"},
        {"ckpt.after_working_write",
         "checkpoint: working context written"},
        {"ckpt.after_mapping_update",
         "checkpoint: mapping list / pt root"},
        {"ckpt.after_commit", "checkpoint: slot flipped consistent"},
        {"ckpt.complete", "checkpoint: log reset + undo retire"},
        {"redo.after_append", "redo log: record fully durable"},
        {"redo.append_pre_fence", "redo log: record clwb'd, unfenced"},
        {"pt.after_undo_append", "pt policy: undo record durable"},
        {"pt.after_store", "pt policy: PTE stored, not flushed"},
        {"pt.after_clwb", "pt policy: PTE clwb'd, unfenced"},
        {"slot.mid_working_write", "saved state: context half-flushed"},
        {"slot.commit_pre_fence",
         "saved state: header clwb'd, unfenced"},
        {"alloc.bitmap_pre_fence",
         "frame alloc: bitmap clwb'd, unfenced"},
        {"hscc.after_copy", "hscc: page copied, PTE not remapped"},
        {"badframe.retire_pre_fence",
         "bad-frame table: bit clwb'd, unfenced"},
        {"recover.after_bitmap", "recovery: allocator bitmap adopted"},
        {"recover.after_log_audit", "recovery: redo log audited"},
        {"recover.after_pt_rollback",
         "recovery: torn PT stores undone"},
        {"recover.after_slot_restore", "recovery: one slot restored"},
        {"recover.after_quarantine", "recovery: one slot fenced off"},
        {"recover.before_reclaim", "recovery: leak reclaim starting"},
        {"recover.complete", "recovery: procedure finished"},
        {"redo.pre_wrap", "redo log: tail about to fold forward"},
        {"redo.pre_truncate",
         "redo log: backpressure epoch bump next"},
        {"reclaim.pre_demote",
         "reclaim: NVM frame held, page not moved"},
        {"oom.pre_kill", "oom: victim chosen, teardown next"},
        {"core.pre_offline",
         "hotplug: core declared dead, teardown next"},
        {"ipi.pre_retry", "shootdown: ack timed out, resend next"},
    };
    return sites;
}

} // namespace kindle::fault
