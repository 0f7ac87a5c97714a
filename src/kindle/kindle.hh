/**
 * @file
 * The Kindle public API: one object assembling the full system.
 *
 * KindleSystem wires together the simulation kernel, the hybrid
 * DRAM+NVM memory, the cache hierarchy, the in-order core, the gemOS
 * kernel, and — when configured — the process-persistence domain and
 * the SSP/HSCC prototype engines.  It also owns the crash/reboot
 * protocol: crash() drops every volatile structure while the NVM
 * durable image survives, and reboot() boots a fresh OS that runs the
 * recovery procedure over that image.
 *
 * Each fault plan has one home, the config of the component that acts
 * on it: the media model in memory.media, the pressure plan in
 * kernel.pressure and the core faults in kernel.coreFaults.  Only the
 * power-loss crash plan (KindleConfig::fault) lives at the top, since
 * the system itself owns the injector and the crash protocol.
 *
 * Typical use (see examples/quickstart.cc):
 *
 *   kindle::KindleConfig cfg;
 *   cfg.persistence = kindle::persist::PersistParams{};
 *   kindle::KindleSystem sys(cfg);
 *   sys.kernel().spawn(std::move(program), "init");
 *   sys.runAll();
 */

#ifndef KINDLE_KINDLE_KINDLE_HH
#define KINDLE_KINDLE_KINDLE_HH

#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include "base/stats.hh"
#include "cache/hierarchy.hh"
#include "cpu/core.hh"
#include "fault/fault.hh"
#include "hscc/hscc_engine.hh"
#include "mem/hybrid_memory.hh"
#include "mem/scrubber.hh"
#include "os/kernel.hh"
#include "persist/checkpoint.hh"
#include "persist/recovery.hh"
#include "sim/simulation.hh"
#include "ssp/ssp_engine.hh"
#include "telemetry/telemetry.hh"
#include "trace/profiler.hh"
#include "trace/trace.hh"

namespace kindle
{

/**
 * Whole-system configuration.  The NVM media model is memory.media
 * (see fault::MediaFaultPlan).  The memory-pressure plan is
 * kernel.pressure (see fault::PressurePlan): an enabled() plan also
 * turns on write-buffer stall tracking on both memory controllers
 * and, with persistence configured, redo-log backpressure and the
 * reclaim engine's early-checkpoint relief.  Seeded CPU-core faults
 * are kernel.coreFaults (see fault::CoreFaultPlan; needs numCores >=
 * 2).  Both kernel plans survive reboot(): the fresh kernel is built
 * from the same config, so the same pressure regime governs every
 * boot and dead hardware stays dead.
 */
struct KindleConfig
{
    mem::HybridMemoryParams memory{};
    cache::HierarchyParams caches{};
    cpu::CoreParams core{};
    os::KernelParams kernel{};

    /**
     * Number of CPU cores.  Every core gets its own TLB, page walker
     * and private L1/L2; the LLC is shared and kept coherent by a
     * MESI-lite directory.  At 1 (the default) the machine is
     * bit-identical to the original uniprocessor model — no directory,
     * no IPIs, the classic stat-tree layout.
     */
    unsigned numCores = 1;

    /** Enable process persistence with these parameters. */
    std::optional<persist::PersistParams> persistence;

    /** Enable the SSP prototype. */
    std::optional<ssp::SspParams> ssp;

    /** Enable the HSCC prototype. */
    std::optional<hscc::HsccParams> hscc;

    /**
     * Arm one injected power-loss crash (see fault::FaultPlan).  An
     * unarmed plan still counts site hits and durable writes, which is
     * how the fuzz harness sizes its crash-point space; it also sets
     * the power-loss model crash() applies (torn store and its seed).
     */
    std::optional<fault::FaultPlan> fault;

    /**
     * Patrol-scrubber cadence.  The scrubber is built whenever the
     * media model is enabled (using defaults if this is unset); set
     * this to tune the patrol interval/chunk or to run the scrubber
     * without media faults (it then simply idles).
     */
    std::optional<mem::ScrubParams> scrub;

    /**
     * Trace capture (see trace::TraceParams).  The flight-recorder
     * ring is on by default; span collection for Chrome-JSON export is
     * opt-in because it keeps every record of the run.
     */
    trace::TraceParams trace{};

    /**
     * Time-series sampling (see telemetry::TelemetryParams).  Off by
     * default (sampleInterval == 0): no sampler event is scheduled and
     * runs stay byte-identical to an unsampled tree.
     */
    telemetry::TelemetryParams telemetry{};

    /**
     * Attach the host-side self-profiler (--prof).  Off by default:
     * prof.* stats are wall-clock derived and nondeterministic, so
     * they must never appear in a default-config stat snapshot.
     */
    bool profiling = false;
};

/** The assembled machine. */
class KindleSystem
{
  public:
    explicit KindleSystem(const KindleConfig &config);
    ~KindleSystem();

    KindleSystem(const KindleSystem &) = delete;
    KindleSystem &operator=(const KindleSystem &) = delete;

    /** @name Component access. */
    /// @{
    sim::Simulation &simulation() { return sim; }
    mem::HybridMemory &memory() { return *mem_; }
    cache::Hierarchy &caches() { return *caches_; }

    /** Core @p cpu of the machine (0 <= cpu < numCores()). */
    cpu::Core &core(CpuId cpu) { return *cores_.at(cpu); }
    unsigned numCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }

    os::Kernel &kernel() { return *kernel_; }

    /** Null when the feature is not configured. */
    persist::PersistDomain *persistence() { return persist_.get(); }
    ssp::SspEngine *sspEngine() { return ssp_.get(); }
    hscc::HsccEngine *hsccEngine() { return hscc_.get(); }

    /** The patrol scrubber (null unless media/scrub configured). */
    mem::PatrolScrubber *scrubber() { return scrubber_.get(); }

    /** The system's crash injector (always present; may be unarmed). */
    fault::CrashInjector &injector() { return *injector_; }

    /** The system's trace sink (always present; may be capturing
     *  nothing when both spans and the ring are disabled). */
    trace::TraceSink &traceSink() { return *traceSink_; }

    /** The time-series sampler (null unless sampleInterval > 0). */
    telemetry::Sampler *sampler() { return sampler_.get(); }

    /** The self-profiler (null unless config.profiling). */
    trace::Profiler *profiler() { return profiler_.get(); }
    /// @}

    /** Current simulated time. */
    Tick now() const { return sim.now(); }

    /**
     * Spawn a program and run the machine until everything exits.
     * Fatal on a crashed machine; if an armed fault fires mid-run,
     * fault::PowerLoss propagates to the caller, who then drives the
     * crash()/reboot() protocol.
     */
    Tick run(std::unique_ptr<cpu::OpStream> program,
             const std::string &name);

    /** Run until all processes exit. */
    void runAll();

    /**
     * Power failure at the current instant: caches, TLBs, DRAM, MSRs,
     * the OS and pending events all vanish; only durable NVM content
     * survives.  The system is unusable until reboot().
     */
    void crash();

    /**
     * Boot a fresh OS over the surviving NVM image and, if
     * persistence is configured, run the recovery procedure and
     * restart the persistence domain.
     */
    persist::RecoveryReport reboot();

    /**
     * Swap in a fresh fault plan and re-arm the (possibly fired)
     * injector.  This is how tests crash a machine a *second* time —
     * in particular inside the next reboot()'s recovery path, which
     * is the recovery-idempotence scenario.
     */
    void armFault(const fault::FaultPlan &plan);

    /** True between crash() and reboot(). */
    bool crashed() const { return isCrashed; }

    /** What the last crash() did to the controller write buffer. */
    const mem::CrashOutcome &lastCrashOutcome() const
    {
        return crashOutcome;
    }

    /**
     * Capture every stat as a flat path→value snapshot: memory,
     * scrubber, caches, each core (and on SMP the "core.*" rollup of
     * their counters), kernel, persistence/SSP/HSCC when configured,
     * fault injector, recovery, profiler.  This is the one way stats
     * leave the machine.
     */
    statistics::StatSnapshot snapshotStats() const;

    /** Export collected spans as Chrome trace-event JSON. */
    void writeTrace(std::ostream &os) const;

    /**
     * Export the sampler's time series; @p csv picks the format.
     * No-op (writes nothing) when the sampler is off.
     */
    void writeTelemetry(std::ostream &os, bool csv = false) const;

    /**
     * Dump the flight-recorder ring as JSON, annotated with @p reason
     * ("power-loss", "oracle-divergence", ...), the armed fault plan
     * and the crash site that fired (if any).  Harness code calls
     * this on failures the system cannot see itself — e.g. the fuzz
     * oracle diverging; power losses and recovery errors dump
     * automatically when trace.flightDumpPath is configured.
     */
    void dumpFlightRecorder(std::ostream &os,
                            const std::string &reason) const;

  private:
    /** Boot a fresh kernel over the machine (construction, reboot). */
    void bootKernel();
    /**
     * Start the configured persist, SSP and HSCC engines over the
     * current kernel (with the pressure plan's backpressure hooks),
     * then the scrubber, then the sampler (when built).  This order
     * fixes same-tick event order, so both the first boot and every
     * reboot() go through here.
     */
    void startEngines();
    /** Drop the engines, then the kernel they reference. */
    void dropOsLayer();
    void buildSampler();
    mem::PowerLossModel lossModel() const;
    void teardownToCrashed();

    /** Write the flight recorder to trace.flightDumpPath, if set. */
    void autoFlightDump(const std::string &reason) const;

    KindleConfig config;

    sim::Simulation sim;

    // The probe targets and their thread-local registration outlive
    // every component that can fire a probe (members destroy in
    // reverse order, so the scope unregisters only after the OS layer
    // is gone).
    std::unique_ptr<trace::TraceSink> traceSink_;
    std::unique_ptr<fault::CrashInjector> injector_;
    std::unique_ptr<trace::Profiler> profiler_;
    std::unique_ptr<trace::ProbeScope> probeScope_;

    std::unique_ptr<mem::HybridMemory> mem_;
    std::unique_ptr<mem::PatrolScrubber> scrubber_;
    std::unique_ptr<cache::Hierarchy> caches_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;
    std::unique_ptr<os::Kernel> kernel_;
    std::unique_ptr<persist::PersistDomain> persist_;
    std::unique_ptr<ssp::SspEngine> ssp_;
    std::unique_ptr<hscc::HsccEngine> hscc_;
    std::unique_ptr<telemetry::Sampler> sampler_;

    bool isCrashed = false;
    mem::CrashOutcome crashOutcome;

    // Reboot-survivable counters: the group is created once with the
    // system (never re-registered on reboot) and accumulates across
    // crash/reboot cycles.
    statistics::StatGroup recoveryStats;
    statistics::Scalar &reboots;
    statistics::Scalar &recoveredProcs;
    statistics::Scalar &quarantinedProcs;
    statistics::Scalar &framesReclaimed;
    statistics::Scalar &tornPtRolledBack;
    statistics::Scalar &recoveryErrors;
    statistics::Histogram &recoveryDuration;
};

} // namespace kindle

#endif // KINDLE_KINDLE_KINDLE_HH
