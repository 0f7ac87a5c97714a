/**
 * @file
 * Boundary tracing for the repo benchmark.
 *
 * The benchmark attributes host time to simulator layers without a
 * single probe inside src/: it times the calls it makes itself
 * (machine construction, workload factories, spawn, run, crash,
 * reboot, checkpointNow, teardown), and it wraps every program in a
 * ProbeStream, a forwarding cpu::OpStream.  The simulator is single
 * threaded, so the stretches between one next() return and the next
 * next() call anywhere in the machine partition each run.  Every such
 * gap is classified by
 *
 *   - which engine counter advanced during it (checkpoints, HSCC
 *     migration intervals, SSP commits/consolidations, reclaim
 *     passes), else
 *   - the op kind handed out before it when that op was a syscall,
 *     else
 *   - a switch, when the next call comes from another program (or is
 *     the first call of a run), else
 *   - the memory or compute op handed out before it.
 *
 * Untimed (the end-to-end run) the wrapper only counts ops, closes a
 * host-time window every 1024 fetches and tracks fleet requests in
 * simulated time.  Timed (the traced run) it also reads the host clock
 * three times per op and keeps count, sum and a log histogram per
 * boundary, plus a 1-in-1024 sample of op gaps and every coarse span
 * for the Chrome trace-event export.
 */

#ifndef KBENCH_PROBE_HH
#define KBENCH_PROBE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "base/json.hh"
#include "base/stats.hh"
#include "cpu/op.hh"
#include "kindle/kindle.hh"

namespace kbench
{

/** Raw host clock: the TSC on x86-64, steady_clock elsewhere. */
inline std::uint64_t
hostTicks()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/**
 * Log-linear histogram: 16 linear sub-buckets per power of two, so a
 * quantile is exact to 1/16 of its octave and is interpolated inside
 * its bucket rather than snapped to a bucket edge.
 */
class LogHistogram
{
  public:
    void
    add(std::uint64_t v)
    {
        ++counts[index(v)];
        ++total;
    }

    /** The @p q-quantile (0..1) in the units added; 0 when empty. */
    double quantile(double q) const;

  private:
    static constexpr unsigned subBits = 4;
    static constexpr unsigned numBuckets = 64u << subBits;

    static unsigned index(std::uint64_t v);

    std::array<std::uint64_t, numBuckets> counts{};
    std::uint64_t total = 0;
};

/** Calls (or gaps) through one boundary. */
struct Boundary
{
    std::uint64_t calls = 0;
    std::uint64_t ticks = 0;
    LogHistogram hist;

    void
    add(std::uint64_t d)
    {
        ++calls;
        ticks += d;
        hist.add(d);
    }
};

/** Calls the benchmark makes into the simulator, plus its own work. */
enum class Span : std::uint8_t
{
    setup,       ///< KindleSystem construction
    factory,     ///< workload / generator construction
    spawn,       ///< Kernel::spawn
    run,         ///< Kernel::run / runUntil (partitioned into gaps)
    crash,       ///< KindleSystem::crash
    reboot,      ///< KindleSystem::reboot (boot + recovery)
    checkpoint,  ///< PersistDomain::checkpointNow
    teardown,    ///< KindleSystem destruction
    harness,     ///< the benchmark's own audits and stat snapshots
    count,
};

/** Classes of the gaps between op fetches. */
enum class Gap : std::uint8_t
{
    memOp,
    computeOp,
    syscall,
    sched,
    ckpt,
    ssp,
    hscc,
    reclaim,
    count,
};

const char *spanName(Span s);
const char *gapName(Gap g);

/** What one timed boundary contributes to a layer's host share. */
const char *spanLayer(Span s);
const char *gapLayer(Gap g);

/** Fleet request accounting, shared by every tenant's probe. */
struct RequestLog
{
    std::uint64_t requestsPerTenant = 0;
    std::uint64_t served = 0;
    std::uint64_t lost = 0;
    std::uint64_t killedTenants = 0;
    /** Simulated ticks from due to completion, one per served request. */
    std::vector<double> latency;
    /** Simulated ticks from due to the access being fetched. */
    std::vector<double> schedLag;
};

class ProbeStream;

/** The boundary recorder of one kbench process. */
class Tracer
{
  public:
    /** @param timed read the host clock at every boundary. */
    explicit Tracer(bool timed);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool timed() const { return _timed; }

    /**
     * Resolve the engine counters of @p sys that classify gaps (call
     * after construction and after every reboot); the probes also read
     * simulated time through it.
     */
    void bind(kindle::KindleSystem &sys);

    /** Forget the bound system (before crash() destroys its engines). */
    void unbind();

    /** Time one call the benchmark makes. */
    template <typename F>
    decltype(auto)
    span(Span s, F &&f)
    {
        if (!_timed)
            return f();
        const Opened o = open(s);
        struct Closer
        {
            Tracer &t;
            Opened o;
            ~Closer() { t.close(o); }
        } closer{*this, o};
        return f();
    }

    /**
     * Time one Kernel::run / runUntil call and partition its interior
     * into op gaps; the gap left open when it returns (or throws) is
     * classified by the last op handed out.
     */
    template <typename F>
    void
    run(F &&f)
    {
        if (!_timed) {
            f();
            return;
        }
        const Opened o = open(Span::run);
        runSpan = o.id;
        gapStart = o.start;
        lastStream = nullptr;
        counters = readCounters();
        struct Closer
        {
            Tracer &t;
            Opened o;
            ~Closer()
            {
                t.closeGap(hostTicks(), nullptr, true);
                t.runSpan = 0;
                t.close(o);
            }
        } closer{*this, o};
        f();
    }

    /** Group the spans of @p f under one parent (a crash point, ...). */
    template <typename F>
    void
    group(std::string name, F &&f)
    {
        if (!_timed) {
            f();
            return;
        }
        const std::uint64_t id = ++spanSeq;
        const std::uint64_t parent = curParent;
        const std::uint64_t start = hostTicks();
        curParent = id;
        struct Closer
        {
            Tracer &t;
            std::string name;
            std::uint64_t id, parent, start;
            ~Closer()
            {
                t.curParent = parent;
                t.events.push_back({std::move(name), "group", start,
                                    hostTicks() - start, id, parent,
                                    false});
            }
        } closer{*this, std::move(name), id, parent, start};
        f();
    }

    /**
     * Start the measured run (after set-up).  From here host time is
     * also recorded per window of 1024 op fetches, so repetitions of
     * the same seed can be compared window by window.
     */
    void startRun();

    /** @name Results. */
    /// @{
    /** Host ns of each window of the measured run; the last one ends
     *  at finish(). */
    const std::vector<std::uint64_t> &windows() const { return windowNs; }

    /** Ops handed out by every wrapped program, by kind. */
    std::uint64_t emitted(kindle::cpu::Op::Kind k) const
    {
        return emittedOps[static_cast<unsigned>(k)];
    }
    std::uint64_t memOpsEmitted() const;
    /** Programs that handed out their exit op. */
    std::uint64_t exitsEmitted() const { return exits; }

    /** Stop the traced wall clock (timed mode). */
    void finish();

    /** Traced wall time from construction to finish(), in ns. */
    double wallNs() const;

    /**
     * Write the per-boundary table and the per-layer host metrics
     * (timed mode) as members of the enclosing JSON object.
     */
    void writeHostMetrics(kindle::json::Writer &w) const;

    /** Export every coarse span and the sampled op gaps. */
    void writeChromeTrace(std::ostream &os) const;
    /// @}

  private:
    friend class ProbeStream;

    struct Opened
    {
        Span span;
        std::uint64_t id;
        std::uint64_t start;
    };

    struct Counters
    {
        double ckpt = 0;
        double ssp = 0;
        double hscc = 0;
        double reclaim = 0;
    };

    struct Event
    {
        std::string name;
        const char *cat;
        std::uint64_t start;
        std::uint64_t dur;
        std::uint64_t id;
        std::uint64_t parent;
        bool op;  ///< a sampled op gap: id is the op sequence number
    };

    Opened open(Span s);
    void close(const Opened &o);

    Counters readCounters() const;

    /**
     * Close the gap open since gapStart at host time @p end.
     * @p caller is the probe whose next() ends it (null when a run
     * returns, which never counts as a switch).
     */
    void closeGap(std::uint64_t end, const ProbeStream *caller,
                  bool at_exit);

    double nsPerTick() const;

    /** Close the current window at the steady clock's now. */
    void markWindow();

    bool _timed;

    bool running = false;
    std::uint64_t fetches = 0;
    std::chrono::steady_clock::time_point windowStart;
    std::vector<std::uint64_t> windowNs;

    std::array<std::uint64_t, 16> emittedOps{};
    std::uint64_t exits = 0;

    kindle::KindleSystem *sys = nullptr;
    const kindle::statistics::Scalar *ckptCtr = nullptr;
    const kindle::statistics::Scalar *sspCommits = nullptr;
    const kindle::statistics::Scalar *sspConsolidations = nullptr;
    const kindle::statistics::Scalar *hsccIntervals = nullptr;
    const kindle::statistics::Scalar *reclaimPasses = nullptr;

    // Gap partition state.
    Counters counters;
    std::uint64_t gapStart = 0;
    const ProbeStream *lastStream = nullptr;
    kindle::cpu::Op::Kind lastKind = kindle::cpu::Op::Kind::compute;
    bool lastEnded = false;  ///< the last next() returned false
    std::uint64_t opSeq = 0;

    std::array<Boundary, static_cast<unsigned>(Span::count)> spans{};
    std::array<Boundary, static_cast<unsigned>(Gap::count)> gaps{};
    Boundary nextCalls;  ///< time inside the wrapped next()
    std::uint64_t selfTicks = 0;  ///< the probes' own bookkeeping

    std::vector<Event> events;
    std::uint64_t spanSeq = 0;
    std::uint64_t curParent = 0;
    std::uint64_t runSpan = 0;

    std::uint64_t tsc0 = 0, tsc1 = 0;
    std::chrono::steady_clock::time_point wall0, wall1;
};

/** The forwarding OpStream around one program. */
class ProbeStream : public kindle::cpu::OpStream
{
  public:
    /** Wrap @p inner; @p requests enables fleet request tracking. */
    ProbeStream(Tracer &tracer,
                std::unique_ptr<kindle::cpu::OpStream> inner,
                RequestLog *requests = nullptr);
    ~ProbeStream() override;

    ProbeStream(const ProbeStream &) = delete;
    ProbeStream &operator=(const ProbeStream &) = delete;

    bool next(kindle::cpu::Op &op) override;

    void
    onSyscallResult(std::uint64_t value) override
    {
        inner->onSyscallResult(value);
    }

  private:
    /** Count the op and advance the request state machine. */
    void account(const kindle::cpu::Op &op, bool more);

    Tracer &tracer;
    std::unique_ptr<kindle::cpu::OpStream> inner;
    RequestLog *requests;

    bool exited = false;
    // Request state (fleet tenants: think compute, then one access).
    bool thinkPending = false;
    bool accessPending = false;
    kindle::Tick due = 0;
    std::uint64_t served = 0;
};

} // namespace kbench

#endif // KBENCH_PROBE_HH
