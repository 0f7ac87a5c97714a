/**
 * @file
 * Crash-point fault injection.
 *
 * A FaultPlan arms exactly one power-loss crash, triggered either at an
 * absolute simulation tick, at the Nth durable NVM write the controller
 * accepts, or at the Nth hit of a *named crash site* — a lightweight
 * probe (KINDLE_CRASH_SITE("ckpt.after_commit")) placed between the
 * individual steps of multi-step durable protocols: checkpoint commit,
 * redo-log append, wrapped PTE stores, allocator bitmap persists, HSCC
 * page copies.  When the trigger fires the injector throws PowerLoss,
 * which unwinds to KindleSystem::run()'s caller; the caller then calls
 * crash() + reboot() exactly like the hand-written crash tests do — but
 * the crash lands *inside* the protocol rather than between operations.
 *
 * Probes are free-function calls (fault::crashSite) routed through the
 * thread's trace::Probes registration, so instrumented subsystems need
 * no plumbing; each KindleSystem registers its injector for the
 * duration of its lifetime, and concurrent SweepRunner workers each
 * see only their own system's injector.
 */

#ifndef KINDLE_FAULT_FAULT_HH
#define KINDLE_FAULT_FAULT_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"

namespace kindle::fault
{

/** One targeted media fault: stuck-at bits on a named NVM frame. */
struct MediaFault
{
    /** Frame index within the NVM range (0 = first NVM frame). */
    std::uint64_t frame = 0;
    /** Cache-line index within the frame. */
    std::uint64_t line = 0;
    /** Error bits to plant (1 = ECC-correctable, >=2 = uncorrectable). */
    unsigned bits = 1;
    /** Stuck-at (survives rewrites) vs transient (a scrub clears it). */
    bool sticky = true;
};

/**
 * NVM media reliability configuration.  Orthogonal to the crash
 * trigger: an armed media plan degrades the medium itself — seeded
 * transient bit flips per line write, per-frame write endurance that
 * develops stuck-at cells once exhausted, and targeted named-frame
 * injections — while the SECDED model in src/mem decides what a read
 * returns.  Plain data so config plumbing stays header-only; its one
 * home is mem::HybridMemoryParams::media.
 */
struct MediaFaultPlan
{
    /** Probability that one media line write leaves a transient flip. */
    double bitFlipRate = 0.0;
    /** Media writes a frame tolerates before cells stick (0 = ∞). */
    std::uint64_t writeEndurance = 0;
    /** Seed for flip positions and victims (deterministic). */
    std::uint64_t seed = 7;
    /** Targeted injections applied when the model is built. */
    std::vector<MediaFault> faults;

    bool
    enabled() const
    {
        return bitFlipRate > 0.0 || writeEndurance != 0 ||
               !faults.empty();
    }
};

/**
 * Memory-pressure configuration.  Orthogonal to the crash trigger and
 * the media model: an enabled pressure plan shrinks the physical zones
 * the kernel hands to its frame allocators, injects seeded transient
 * allocation failures (forcing the retry/backoff path), and switches
 * the kernel's exhaustion handling from kindle_fatal to the graceful
 * ENOMEM → reclaim → OOM-kill escalation.  Plain data so config
 * plumbing stays header-only, like MediaFaultPlan above; its one home
 * is os::KernelParams::pressure.
 */
struct PressurePlan
{
    /** Cap the DRAM user zone to this many frames (0 = whole zone). */
    std::uint64_t dramZoneFrames = 0;
    /** Cap the NVM user pool to this many frames (0 = whole pool). */
    std::uint64_t nvmZoneFrames = 0;

    /** Probability one tryAlloc is failed artificially (transient). */
    double allocFailRate = 0.0;
    /** Seed for the injected-failure coin flips (deterministic). */
    std::uint64_t seed = 11;

    /** NVM watermarks in frames; 0 derives low = max(8, frames/16)
     *  and high = max(2*low, frames/8) from the (possibly shrunk)
     *  zone.  The DRAM zone's watermarks are always derived. */
    std::uint64_t nvmLowWatermark = 0;
    std::uint64_t nvmHighWatermark = 0;

    /** Minimum gap between reclaim-requested early checkpoints (an
     *  NVM zone pinned at its cap sits below-low forever; unthrottled
     *  relief then checkpoints every patrol pass).  0 = no throttle. */
    Tick reclaimCheckpointMinGap = 0;

    /** Last-resort deterministic OOM killer (victim by RSS). */
    bool oomEnabled = true;

    bool
    enabled() const
    {
        return dramZoneFrames != 0 || nvmZoneFrames != 0 ||
               allocFailRate > 0.0;
    }
};

/**
 * One seeded CPU-core fault.  A fault either *fail-stops* the core
 * (stallTicks == 0: the core never executes or acknowledges anything
 * again, and the kernel watchdog eventually declares it dead and
 * offlines it) or *transiently stalls* it (stallTicks > 0: the core is
 * unresponsive — IPIs go unacknowledged, its timeslices are skipped —
 * until the stall window elapses, exercising the retry path without
 * killing the core).  The trigger is either an absolute simulation
 * tick or the Nth TLB-shootdown IPI the core *receives* (1-based),
 * which plants the fault precisely inside the ack-timeout protocol.
 */
struct CoreFault
{
    /** Victim core. */
    CpuId cpu = 0;
    /** Fire at the first evaluation at or after this tick (0 = off). */
    Tick atTick = 0;
    /** Fire when the core receives its Nth shootdown IPI (0 = off). */
    std::uint64_t atNthIpi = 0;
    /** 0 = fail-stop (permanent); >0 = stall for this many ticks. */
    Tick stallTicks = 0;
};

/**
 * CPU-fault configuration: a list of seeded core faults.  Orthogonal
 * to the crash trigger, the media model, and the pressure plan — plain
 * data so config plumbing stays header-only, like the plans above;
 * its one home is os::KernelParams::coreFaults.  An empty plan is
 * guaranteed zero-cost: the kernel never evaluates triggers, takes no
 * extra event-queue bumps, and registers no stats, so runs without a
 * plan stay byte-identical to a tree without the subsystem.
 */
struct CoreFaultPlan
{
    std::vector<CoreFault> faults;

    bool enabled() const { return !faults.empty(); }
};

/** What to crash on.  At most one trigger should be armed. */
struct FaultPlan
{
    /** Named crash site to trip on ("" = disabled). */
    std::string site;
    /** Fire at the Nth hit of @c site (1-based). */
    std::uint64_t occurrence = 1;
    /** Fire at the Nth durable NVM write (0 = disabled, 1-based). */
    std::uint64_t atNthDurableWrite = 0;
    /** Fire at the first probe at or after this tick (0 = disabled). */
    Tick atTick = 0;
    /** Lose undrained controller-buffer writes with a torn store. */
    bool tornStore = true;
    /** Seed for the deterministic torn-store victim choice. */
    std::uint64_t seed = 1;

    bool
    armed() const
    {
        return !site.empty() || atNthDurableWrite != 0 || atTick != 0;
    }
};

/** One entry of the crash-site catalog: name + what the protocol has
 *  (and has not) done when the probe fires. */
struct CrashSiteInfo
{
    const char *name;
    const char *description;
};

/**
 * Every named crash site in the tree, with a one-line description per
 * site (drives --list-crash-sites and the generated DESIGN.md table).
 * This is the only place a site is named: a probe names its site by
 * text, and KINDLE_CRASH_SITE resolves that text to an index here at
 * compile time, so a name outside this table does not build.  The
 * crash-site parameterized test crashes at each entry and asserts its
 * probe actually fired.
 */
inline constexpr auto crashSites = std::to_array<CrashSiteInfo>({
    {"ckpt.before_cpu_log", "checkpoint: before CPU redo record"},
    {"ckpt.after_log_append", "checkpoint: CPU record durable"},
    {"ckpt.after_replay", "checkpoint: metadata log replayed"},
    {"ckpt.after_working_write", "checkpoint: working context written"},
    {"ckpt.after_mapping_update", "checkpoint: mapping list / pt root"},
    {"ckpt.after_commit", "checkpoint: slot flipped consistent"},
    {"ckpt.complete", "checkpoint: log reset + undo retire"},
    {"redo.after_append", "redo log: record fully durable"},
    {"redo.append_pre_fence", "redo log: record clwb'd, unfenced"},
    {"pt.after_undo_append", "pt policy: undo record durable"},
    {"pt.after_store", "pt policy: PTE stored, not flushed"},
    {"pt.after_clwb", "pt policy: PTE clwb'd, unfenced"},
    {"slot.mid_working_write", "saved state: context half-flushed"},
    {"slot.commit_pre_fence", "saved state: header clwb'd, unfenced"},
    {"alloc.bitmap_pre_fence", "frame alloc: bitmap clwb'd, unfenced"},
    {"hscc.after_copy", "hscc: page copied, PTE not remapped"},
    {"badframe.retire_pre_fence", "bad-frame table: bit clwb'd, unfenced"},
    {"recover.after_bitmap", "recovery: allocator bitmap adopted"},
    {"recover.after_log_audit", "recovery: redo log audited"},
    {"recover.after_pt_rollback", "recovery: torn PT stores undone"},
    {"recover.after_slot_restore", "recovery: one slot restored"},
    {"recover.after_quarantine", "recovery: one slot fenced off"},
    {"recover.before_reclaim", "recovery: leak reclaim starting"},
    {"recover.complete", "recovery: procedure finished"},
    {"redo.pre_wrap", "redo log: tail about to fold forward"},
    {"redo.pre_truncate", "redo log: backpressure epoch bump next"},
    {"reclaim.pre_demote", "reclaim: NVM frame held, page not moved"},
    {"oom.pre_kill", "oom: victim chosen, teardown next"},
    {"core.pre_offline", "hotplug: core declared dead, teardown next"},
    {"ipi.pre_retry", "shootdown: ack timed out, resend next"},
});

/** A crash site: its index in crashSites. */
using SiteId = std::size_t;

/** The index of the site named @p name, if the catalog has one. */
constexpr std::optional<SiteId>
findSite(std::string_view name)
{
    for (SiteId id = 0; id < crashSites.size(); ++id) {
        if (name == crashSites[id].name)
            return id;
    }
    return std::nullopt;
}

static_assert(
    [] {
        for (SiteId id = 0; id < crashSites.size(); ++id) {
            if (findSite(crashSites[id].name) != id)
                return false;
        }
        return true;
    }(),
    "every crash-site name must be unique");

/** Not constexpr: a compile-time siteId() that reaches it fails. */
inline void
notInCrashSiteCatalog()
{}

/** The index of the site named @p name, resolved at compile time; a
 *  name outside crashSites does not compile. */
consteval SiteId
siteId(std::string_view name)
{
    const std::optional<SiteId> id = findSite(name);
    if (!id)
        notInCrashSiteCatalog();
    return *id;
}

/** The crash-site catalog, in declaration order. */
constexpr const auto &
crashSiteCatalog()
{
    return crashSites;
}

/** Thrown when an armed trigger fires; unwinds out of run(). */
class PowerLoss : public std::exception
{
  public:
    PowerLoss(std::string site, Tick tick)
        : _site(std::move(site)), _tick(tick),
          msg("power loss injected at crash site '" + _site + "'")
    {}

    const char *what() const noexcept override { return msg.c_str(); }
    const std::string &site() const { return _site; }
    Tick tick() const { return _tick; }

  private:
    std::string _site;
    Tick _tick;
    std::string msg;
};

/**
 * Per-system crash injector.  Counts site hits and durable NVM writes
 * even when no trigger is armed (observe-only mode), which is how the
 * fuzz harness sizes its crash-point space from a golden run.
 *
 * A hit names its site by catalog index, so counting it is an array
 * increment.  A plan names its site by text; the injector resolves it
 * once, when it is built or re-armed, and a name outside the catalog
 * is fatal there.
 */
class CrashInjector
{
  public:
    CrashInjector(FaultPlan plan, std::function<Tick()> now_fn);

    /**
     * Arm the probes.  Until activate() the injector only exists; the
     * owning system activates it after boot so that construction-time
     * durable writes do not consume trigger budget (keeping golden and
     * faulted runs aligned on the same counting base).
     */
    void activate() { active = true; }
    void deactivate() { active = false; }

    /**
     * Swap in a fresh plan and re-activate the probes with cleared
     * trigger state (hit counts, durable-write count, fired flag).
     * This is how a test arms a *second* crash on an already-crashed
     * system — e.g. inside the recovery path of the next reboot(),
     * proving recovery survives being interrupted.
     */
    void rearm(FaultPlan plan);

    /** Probe: the crash site @p id was reached. */
    void site(SiteId id);
    /** Probe: a durable write was accepted by the NVM controller. */
    void durableWrite(Tick now);

    /**
     * Observer called on every site hit with (name, hit-count), before
     * any trigger evaluation.  The name is one string per site, built
     * once from the catalog.  The fuzz harness uses it to snapshot its
     * oracle at protocol boundaries.
     */
    void
    setObserver(std::function<void(const std::string &, std::uint64_t)> fn)
    {
        observer = std::move(fn);
    }

    const FaultPlan &plan() const { return _plan; }
    bool fired() const { return _fired; }
    const std::string &firedSite() const { return _firedSite; }
    std::uint64_t durableWrites() const { return _durableWrites; }

    /** Hits of the site named @p name since the last rearm(); fatal if
     *  the catalog has no such site. */
    std::uint64_t hitsOf(const std::string &name) const;

    /** Every site hit since the last rearm(), by name. */
    std::map<std::string, std::uint64_t> allHits() const;

    statistics::StatGroup &stats() { return statGroup; }

  private:
    /** Take @p plan as the plan, resolving its site to an index. */
    void setPlan(FaultPlan plan);

    [[noreturn]] void fireAt(SiteId id);
    [[noreturn]] void fireAtDurableWrite();
    [[noreturn]] void fire(std::string name);

    FaultPlan _plan;
    /** The catalog index of _plan.site, if it names one. */
    std::optional<SiteId> planSite;
    std::function<Tick()> nowFn;
    std::function<void(const std::string &, std::uint64_t)> observer;

    bool active = false;
    bool _fired = false;
    std::string _firedSite;
    std::uint64_t _durableWrites = 0;

    /** Hits per catalog site since the last rearm(). */
    std::array<std::uint64_t, crashSites.size()> hits{};

    statistics::StatGroup statGroup;
    statistics::Scalar &siteHits;
    statistics::Scalar &durableWriteStat;
    statistics::Scalar &crashesInjected;
};

/** Probe entry points used by instrumented code; they feed the
 *  injector registered on this thread, if any. */
void crashSite(SiteId id);
void onDurableNvmWrite(Tick now);

} // namespace kindle::fault

/** Probe macro — reads as a labelled no-op at the instrumented line;
 *  @p name must be a literal naming a site in fault::crashSites. */
#define KINDLE_CRASH_SITE(name)                                             \
    ::kindle::fault::crashSite(::kindle::fault::siteId(name))

#endif // KINDLE_FAULT_FAULT_HH
