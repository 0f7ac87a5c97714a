#include "kindle/kindle.hh"

#include <fstream>

#include "base/logging.hh"
#include "base/str.hh"
#include "os/reclaim.hh"

namespace kindle
{

KindleSystem::KindleSystem(const KindleConfig &config_arg)
    : config(config_arg),
      recoveryStats("recovery",
                    "crash recovery outcomes (cumulative over reboots)"),
      reboots(recoveryStats.addScalar("reboots", "reboot() calls")),
      recoveredProcs(recoveryStats.addScalar(
          "processesRecovered", "processes restored by recovery")),
      quarantinedProcs(recoveryStats.addScalar(
          "processesQuarantined", "slots fenced off by recovery")),
      framesReclaimed(recoveryStats.addScalar(
          "framesReclaimed", "leaked NVM frames reclaimed")),
      tornPtRolledBack(recoveryStats.addScalar(
          "tornPtStoresRolledBack", "torn PTE stores undone")),
      recoveryErrors(recoveryStats.addScalar(
          "errors", "classified recovery errors")),
      recoveryDuration(recoveryStats.addHistogram(
          "duration", "per-reboot recovery ticks"))
{
    // The page-table home follows the persistence scheme.
    if (config.persistence) {
        config.kernel.ptInNvm =
            config.persistence->scheme == persist::PtScheme::persistent;
    }

    // A pressure plan turns on write-buffer stall telemetry (pressure
    // shows up first as controller stalls).
    if (config.kernel.pressure.enabled()) {
        config.memory.dramCtrl.trackStalls = true;
        config.memory.nvmCtrl.trackStalls = true;
    }

    // The injector exists even when no fault is configured: an unarmed
    // plan just counts probe hits (observe mode).  The self-profiler
    // exists only on request: prof.* stats are wall-clock derived and
    // nondeterministic, and the BENCH JSON contract requires default
    // stat snapshots never to contain them.
    traceSink_ = std::make_unique<trace::TraceSink>(
        config.trace, [this] { return sim.now(); });
    injector_ = std::make_unique<fault::CrashInjector>(
        config.fault.value_or(fault::FaultPlan{}),
        [this] { return sim.now(); });
    if (config.profiling)
        profiler_ = std::make_unique<trace::Profiler>();

    // Register all three before any component exists, so probes fired
    // during construction, boot and teardown land in this system.  A
    // null profiler still shadows any outer system's on this thread.
    probeScope_ = std::make_unique<trace::ProbeScope>(trace::Probes{
        traceSink_.get(), profiler_.get(), injector_.get()});

    const unsigned n = std::max(1u, config.numCores);
    mem_ = std::make_unique<mem::HybridMemory>(config.memory);
    caches_ = std::make_unique<cache::Hierarchy>(config.caches, *mem_,
                                                 n);
    // One core keeps the historical "core" stat-group name; an SMP
    // machine names them "cpu0".."cpuN-1" and grows an aggregate
    // rollup (see snapshotStats).
    for (unsigned c = 0; c < n; ++c) {
        cores_.push_back(std::make_unique<cpu::Core>(
            config.core, sim, *mem_, *caches_, c,
            n == 1 ? std::string("core") : csprintf("cpu{}", c)));
    }

    // The scrubber lives with the machine (stats accumulate across
    // reboots); its retirement handler dereferences the *current*
    // kernel, so no rebinding is needed after reboot().
    if (mem_->media() || config.scrub) {
        scrubber_ = std::make_unique<mem::PatrolScrubber>(
            sim, *mem_, config.scrub.value_or(mem::ScrubParams{}));
        scrubber_->setBadFrameHandler(
            [this](Addr frame, const char *reason) {
                kernel_->retireNvmFrame(frame, reason);
            });
    }

    bootKernel();
    startEngines();
    buildSampler();

    // Activate only after boot so construction-time durable writes do
    // not consume trigger budget.
    injector_->activate();
}

KindleSystem::~KindleSystem()
{
    dropOsLayer();
}

void
KindleSystem::bootKernel()
{
    std::vector<cpu::Core *> cores;
    cores.reserve(cores_.size());
    for (const auto &c : cores_)
        cores.push_back(c.get());
    kernel_ = std::make_unique<os::Kernel>(config.kernel, sim, *mem_,
                                           *caches_, std::move(cores));
}

void
KindleSystem::startEngines()
{
    if (config.persistence) {
        persist_ = std::make_unique<persist::PersistDomain>(
            *config.persistence, *kernel_);
        persist_->start();
    }
    if (config.ssp) {
        ssp_ = std::make_unique<ssp::SspEngine>(*config.ssp, *kernel_);
        ssp_->start();
    }
    if (config.hscc) {
        hscc_ = std::make_unique<hscc::HsccEngine>(*config.hscc,
                                                   *kernel_);
        hscc_->start();
    }
    if (persist_ && config.kernel.pressure.enabled()) {
        // Redo-log high water pulls the next checkpoint forward before
        // the log can wrap; the early checkpoint truncates the log and
        // compacts dead saved-state slots.
        persist_->enableBackpressure();
        // NVM-zone pressure has no page-level relief valve; the
        // reclaim engine asks the persistence domain to shed metadata
        // instead.
        if (auto *rec = kernel_->reclaimEngine()) {
            rec->setCheckpointHook([this] {
                if (persist_)
                    persist_->requestEarlyCheckpoint();
            });
        }
    }
    if (scrubber_)
        scrubber_->start();
    // A crash clears the sampler's pending event with the rest of the
    // queue; resume it over the rebooted machine (rate baselines
    // re-prime, since the fresh kernel's counters restarted).  On the
    // first boot it does not exist yet: buildSampler() starts it.
    if (sampler_)
        sampler_->restart();
}

void
KindleSystem::dropOsLayer()
{
    // Engines detach (their destructors stop them) before the kernel
    // they reference disappears.
    ssp_.reset();
    hscc_.reset();
    persist_.reset();
    kernel_.reset();
}

void
KindleSystem::buildSampler()
{
    if (config.telemetry.sampleInterval == 0)
        return;
    sampler_ = std::make_unique<telemetry::Sampler>(
        sim, config.telemetry, [this] { return snapshotStats(); });
    using Kind = telemetry::Sampler::Kind;

    // Levels: the machine's occupancy picture at the sample instant.
    sampler_->addStatChannel("dramFramesUsed", Kind::level,
                             "kernel.dramAlloc.framesInUse");
    sampler_->addStatChannel("nvmFramesUsed", Kind::level,
                             "kernel.nvmAlloc.framesInUse");
    sampler_->addCallbackChannel(
        "residentPages", Kind::level, [this] {
            return kernel_ ? static_cast<double>(
                                 kernel_->residentPagesTotal())
                           : 0.0;
        });
    sampler_->addCallbackChannel("runnable", Kind::level, [this] {
        return kernel_
                   ? static_cast<double>(kernel_->runnableCount())
                   : 0.0;
    });
    // Fleet-scale population and per-tier occupancy: how many tenants
    // are alive and what fraction of each zone they hold.
    sampler_->addCallbackChannel("liveProcs", Kind::level, [this] {
        return kernel_
                   ? static_cast<double>(kernel_->liveProcessCount())
                   : 0.0;
    });
    sampler_->addCallbackChannel("dramOccupancy", Kind::level, [this] {
        if (!kernel_)
            return 0.0;
        const os::FrameAllocator &a = kernel_->dramAllocator();
        return static_cast<double>(a.allocatedFrames()) /
               static_cast<double>(a.totalFrames());
    });
    sampler_->addCallbackChannel("nvmOccupancy", Kind::level, [this] {
        if (!kernel_)
            return 0.0;
        const os::FrameAllocator &a = kernel_->nvmAllocator();
        return static_cast<double>(a.allocatedFrames()) /
               static_cast<double>(a.totalFrames());
    });
    if (config.persistence) {
        sampler_->addCallbackChannel(
            "redoLogPending", Kind::level, [this] {
                return persist_ ? static_cast<double>(
                                      persist_->redoLog().pending())
                                : 0.0;
            });
    }

    // Rates: per-interval activity deltas.  Paths that do not exist
    // in a sample (lazily-registered stats, unconfigured subsystems)
    // read as zero, so channels can cover optional machinery.
    sampler_->addStatChannel("pageFaults", Kind::rate,
                             "kernel.pageFaults");
    sampler_->addStatChannel("reclaimDemotions", Kind::rate,
                             "kernel.reclaim.pagesDemoted");
    sampler_->addStatChannel("shootdownIpis", Kind::rate,
                             "kernel.tlbShootdownIpis");
    if (config.persistence) {
        sampler_->addStatChannel("checkpoints", Kind::rate,
                                 "persist.checkpoints");
    }
    if (config.hscc) {
        sampler_->addStatChannel("hsccMigrations", Kind::rate,
                                 "hscc.pagesMigrated");
    }
    sampler_->start();
}

Tick
KindleSystem::run(std::unique_ptr<cpu::OpStream> program,
                  const std::string &name)
{
    if (isCrashed) {
        kindle_fatal("KindleSystem::run() between crash() and "
                     "reboot() — the machine has no OS; call reboot() "
                     "to recover the durable image first");
    }
    const Tick t0 = sim.now();
    kernel_->spawn(std::move(program), name);
    runAll();
    return sim.now() - t0;
}

void
KindleSystem::runAll()
{
    if (isCrashed) {
        kindle_fatal("KindleSystem::runAll() between crash() and "
                     "reboot() — the machine has no OS; call reboot() "
                     "to recover the durable image first");
    }
    try {
        kernel_->run();
    } catch (const fault::PowerLoss &) {
        autoFlightDump("power-loss");
        throw;
    }
}

mem::PowerLossModel
KindleSystem::lossModel() const
{
    mem::PowerLossModel loss;
    if (config.fault) {
        loss.tornStore = config.fault->tornStore;
        loss.seed = config.fault->seed;
    }
    return loss;
}

void
KindleSystem::teardownToCrashed()
{
    // Volatile hardware state disappears; durable NVM survives —
    // except the lines still queued in the controller write buffer,
    // which are lost (and possibly torn) by the power-loss model.
    // Media error state is physical and survives untouched.
    if (scrubber_)
        scrubber_->stop();
    caches_->invalidateAll();
    for (auto &core : cores_)
        core->reset();
    crashOutcome = mem_->crash(sim.now(), lossModel());
    sim.hardReset();

    // The injector's job is done once the crash lands; silence the
    // probes until the post-reboot system is whole again.
    injector_->deactivate();
}

void
KindleSystem::crash()
{
    kindle_assert(!isCrashed, "double crash");
    isCrashed = true;

    // The engines' events and hooks detach from the dying kernel;
    // their host-side indexes are volatile state.
    dropOsLayer();
    teardownToCrashed();
}

persist::RecoveryReport
KindleSystem::reboot()
{
    kindle_assert(isCrashed, "reboot without a crash");
    isCrashed = false;

    // Fresh kernel over the surviving NVM image.
    bootKernel();

    persist::RecoveryReport report;
    if (config.persistence) {
        try {
            report = persist::recover(*kernel_,
                                      config.persistence->scheme);
        } catch (const fault::PowerLoss &) {
            // Power failed *during recovery* (a re-armed injector
            // tripped one of the recover.* probes).  The half-booted
            // machine dies exactly like any other crash; the durable
            // image — including whatever recovery managed to persist
            // — is what the next reboot() starts from.
            autoFlightDump("power-loss-in-recovery");
            dropOsLayer();
            teardownToCrashed();
            isCrashed = true;
            throw;
        }
    }
    startEngines();

    // The injector stays deactivated: its one armed crash has fired
    // (or been skipped), and recovery/rerun probes must not refire it.
    ++reboots;
    recoveredProcs += static_cast<double>(report.processesRecovered);
    quarantinedProcs +=
        static_cast<double>(report.processesQuarantined);
    framesReclaimed += static_cast<double>(report.framesReclaimed);
    tornPtRolledBack +=
        static_cast<double>(report.tornPtStoresRolledBack);
    recoveryErrors += static_cast<double>(report.errors.size());
    recoveryDuration.sample(
        static_cast<double>(report.recoveryTicks));
    if (!report.errors.empty())
        autoFlightDump("recovery-error");
    return report;
}

void
KindleSystem::armFault(const fault::FaultPlan &plan)
{
    config.fault = plan;
    injector_->rearm(plan);
}

statistics::StatSnapshot
KindleSystem::snapshotStats() const
{
    statistics::StatSnapshot snap;
    statistics::StatSnapshot::Builder builder(snap);
    mem_->stats().accept(builder);
    if (scrubber_)
        scrubber_->stats().accept(builder);
    caches_->stats().accept(builder);
    for (const auto &core : cores_)
        core->stats().accept(builder);
    if (cores_.size() > 1) {
        // Aggregate rollup: "core.*" is the machine-wide sum of the
        // per-cpu counters, so tooling keyed on the uniprocessor
        // names keeps working against SMP runs.
        statistics::StatSnapshot::Builder rollup(snap, "core");
        for (const auto &core : cores_)
            core->stats().accept(rollup);
    }
    if (kernel_)
        kernel_->stats().accept(builder);
    if (persist_)
        persist_->stats().accept(builder);
    if (ssp_)
        ssp_->stats().accept(builder);
    if (hscc_)
        hscc_->stats().accept(builder);
    injector_->stats().accept(builder);
    recoveryStats.accept(builder);
    if (profiler_)
        profiler_->stats().accept(builder);
    return snap;
}

namespace
{

/** One-line human summary of a fault plan for flight-recorder dumps. */
std::string
describePlan(const std::optional<fault::FaultPlan> &plan,
             const fault::MediaFaultPlan &media)
{
    std::string out = "none";
    if (plan) {
        const fault::FaultPlan &p = *plan;
        if (!p.site.empty())
            out = csprintf("site={}#{}", p.site, p.occurrence);
        else if (p.atNthDurableWrite != 0)
            out = csprintf("durable-write#{}", p.atNthDurableWrite);
        else if (p.atTick != 0)
            out = csprintf("at-tick={}", p.atTick);
        else
            out = "unarmed";
        out += csprintf(" torn={} seed={}", p.tornStore ? 1 : 0, p.seed);
    }
    if (media.enabled()) {
        out += csprintf(" media(flip={} endurance={} targeted={})",
                        media.bitFlipRate, media.writeEndurance,
                        media.faults.size());
    }
    return out;
}

} // namespace

void
KindleSystem::writeTrace(std::ostream &os) const
{
    traceSink_->writeChromeJson(os);
}

void
KindleSystem::writeTelemetry(std::ostream &os, bool csv) const
{
    if (!sampler_)
        return;
    if (csv)
        sampler_->writeCsv(os);
    else
        sampler_->writeJson(os);
}

void
KindleSystem::dumpFlightRecorder(std::ostream &os,
                                 const std::string &reason) const
{
    trace::FlightContext ctx;
    ctx.reason = reason;
    ctx.crashSite = injector_->firedSite();
    ctx.tick = sim.now();
    ctx.faultPlan = describePlan(config.fault, config.memory.media);
    traceSink_->writeFlightRecorder(os, ctx);
}

void
KindleSystem::autoFlightDump(const std::string &reason) const
{
    const std::string &path = config.trace.flightDumpPath;
    if (path.empty())
        return;
    std::ofstream out(path);
    if (!out) {
        warn("cannot write flight-recorder dump to '{}'", path);
        return;
    }
    dumpFlightRecorder(out, reason);
}

} // namespace kindle
