#include "probe.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "os/reclaim.hh"

namespace kbench
{

using namespace kindle;

namespace
{

/** Every 1024th op gap goes to the Chrome trace. */
constexpr std::uint64_t gapSampleMask = 1023;

/** Op fetches per host-time window of the measured run. */
constexpr std::uint64_t windowMask = 1023;

bool
isSyscallKind(cpu::Op::Kind k)
{
    using Kind = cpu::Op::Kind;
    return k != Kind::read && k != Kind::write && k != Kind::compute;
}

/** Scalar @p name directly inside @p group (not in a child group). */
const statistics::Scalar *
findScalar(const statistics::StatGroup &group, const std::string &name)
{
    struct Finder : statistics::StatVisitor
    {
        const std::string &want;
        int depth = 0;
        const statistics::Scalar *found = nullptr;

        explicit Finder(const std::string &w) : want(w) {}

        void beginGroup(const std::string &, const std::string &) override
        {
            ++depth;
        }
        void endGroup() override { --depth; }
        void
        visitScalar(const std::string &n, const std::string &,
                    const statistics::Scalar &stat) override
        {
            if (depth == 1 && n == want)
                found = &stat;
        }
        void visitGauge(const std::string &, const std::string &,
                        const statistics::Gauge &) override {}
        void visitDistribution(const std::string &, const std::string &,
                               const statistics::Distribution &) override
        {}
        void visitHistogram(const std::string &, const std::string &,
                            const statistics::Histogram &) override {}
    } finder(name);
    group.accept(finder);
    if (!finder.found)
        kindle_fatal("kbench: no scalar '{}' in group '{}'", name,
                     group.name());
    return finder.found;
}

double
valueOf(const statistics::Scalar *s)
{
    return s ? s->value() : 0.0;
}

} // namespace

// ---------------------------------------------------------------------
// LogHistogram

unsigned
LogHistogram::index(std::uint64_t v)
{
    if (v < (1u << subBits))
        return static_cast<unsigned>(v);
    const unsigned e = 63 - static_cast<unsigned>(std::countl_zero(v));
    const unsigned sub = static_cast<unsigned>(v >> (e - subBits)) &
                         ((1u << subBits) - 1);
    return ((e - subBits + 1) << subBits) + sub;
}

double
LogHistogram::quantile(double q) const
{
    if (total == 0)
        return 0;
    const double rank = q * static_cast<double>(total - 1);
    std::uint64_t before = 0;
    for (unsigned i = 0; i < numBuckets; ++i) {
        const std::uint64_t n = counts[i];
        if (n == 0 || static_cast<double>(before + n) <= rank) {
            before += n;
            continue;
        }
        double lo = i, width = 1;
        if (i >= (1u << subBits)) {
            const unsigned e = (i >> subBits) + subBits - 1;
            const unsigned sub = i & ((1u << subBits) - 1);
            lo = std::ldexp(double((1u << subBits) + sub),
                            static_cast<int>(e - subBits));
            width = std::ldexp(1.0, static_cast<int>(e - subBits));
        }
        const double frac =
            (rank - static_cast<double>(before) + 0.5) /
            static_cast<double>(n);
        return lo + std::min(frac, 1.0) * width;
    }
    return 0;
}

// ---------------------------------------------------------------------
// Names and layers

const char *
spanName(Span s)
{
    switch (s) {
      case Span::setup: return "setup";
      case Span::factory: return "factory";
      case Span::spawn: return "spawn";
      case Span::run: return "run";
      case Span::crash: return "crash";
      case Span::reboot: return "reboot";
      case Span::checkpoint: return "checkpointNow";
      case Span::teardown: return "teardown";
      case Span::harness: return "harness";
      case Span::count: break;
    }
    return "?";
}

const char *
gapName(Gap g)
{
    switch (g) {
      case Gap::memOp: return "mem_op";
      case Gap::computeOp: return "compute_op";
      case Gap::syscall: return "syscall";
      case Gap::sched: return "switch";
      case Gap::ckpt: return "ckpt";
      case Gap::ssp: return "ssp_commit";
      case Gap::hscc: return "hscc_migrate";
      case Gap::reclaim: return "reclaim";
      case Gap::count: break;
    }
    return "?";
}

const char *
spanLayer(Span s)
{
    switch (s) {
      case Span::setup:
      case Span::crash:
      case Span::teardown: return "kindle";
      case Span::factory: return "prep";
      case Span::spawn: return "os";
      case Span::reboot:
      case Span::checkpoint: return "persist";
      case Span::harness: return "bench";
      case Span::run:
      case Span::count: break;
    }
    return nullptr;  // run spans are covered by their gaps
}

const char *
gapLayer(Gap g)
{
    switch (g) {
      case Gap::memOp:
      case Gap::computeOp: return "cpu";
      case Gap::syscall:
      case Gap::sched:
      case Gap::reclaim: return "os";
      case Gap::ckpt: return "persist";
      case Gap::ssp: return "ssp";
      case Gap::hscc: return "hscc";
      case Gap::count: break;
    }
    return "?";
}

// ---------------------------------------------------------------------
// Tracer

Tracer::Tracer(bool timed)
    : _timed(timed), tsc0(hostTicks()),
      wall0(std::chrono::steady_clock::now())
{
}

void
Tracer::bind(KindleSystem &system)
{
    sys = &system;
    ckptCtr = sspCommits = sspConsolidations = hsccIntervals =
        reclaimPasses = nullptr;
    if (auto *p = system.persistence())
        ckptCtr = findScalar(p->stats(), "checkpoints");
    if (auto *s = system.sspEngine()) {
        sspCommits = findScalar(s->stats(), "intervalCommits");
        sspConsolidations = findScalar(s->stats(), "consolidations");
    }
    if (auto *h = system.hsccEngine())
        hsccIntervals = findScalar(h->stats(), "intervals");
    if (auto *r = system.kernel().reclaimEngine())
        reclaimPasses = findScalar(r->stats(), "passes");
}

void
Tracer::unbind()
{
    sys = nullptr;
    ckptCtr = sspCommits = sspConsolidations = hsccIntervals =
        reclaimPasses = nullptr;
}

std::uint64_t
Tracer::memOpsEmitted() const
{
    return emitted(cpu::Op::Kind::read) + emitted(cpu::Op::Kind::write);
}

Tracer::Opened
Tracer::open(Span s)
{
    return {s, ++spanSeq, hostTicks()};
}

void
Tracer::close(const Opened &o)
{
    const std::uint64_t dur = hostTicks() - o.start;
    spans[static_cast<unsigned>(o.span)].add(dur);
    const char *layer = spanLayer(o.span);
    events.push_back({spanName(o.span), layer ? layer : "run", o.start,
                      dur, o.id, curParent, false});
}

Tracer::Counters
Tracer::readCounters() const
{
    Counters c;
    c.ckpt = valueOf(ckptCtr);
    c.ssp = valueOf(sspCommits) + valueOf(sspConsolidations);
    c.hscc = valueOf(hsccIntervals);
    c.reclaim = valueOf(reclaimPasses);
    return c;
}

void
Tracer::closeGap(std::uint64_t end, const ProbeStream *caller,
                 bool at_exit)
{
    const Counters now = readCounters();
    Gap g;
    if (now.ckpt != counters.ckpt)
        g = Gap::ckpt;
    else if (now.hscc != counters.hscc)
        g = Gap::hscc;
    else if (now.ssp != counters.ssp)
        g = Gap::ssp;
    else if (now.reclaim != counters.reclaim)
        g = Gap::reclaim;
    else if (lastStream && (lastEnded || isSyscallKind(lastKind)))
        g = Gap::syscall;
    else if (!lastStream || (!at_exit && caller != lastStream))
        g = Gap::sched;
    else if (lastKind == cpu::Op::Kind::compute)
        g = Gap::computeOp;
    else
        g = Gap::memOp;
    counters = now;

    const std::uint64_t dur = end - gapStart;
    gaps[static_cast<unsigned>(g)].add(dur);
    if ((++opSeq & gapSampleMask) == 0) {
        events.push_back({gapName(g), gapLayer(g), gapStart, dur, opSeq,
                          runSpan, true});
    }
}

void
Tracer::startRun()
{
    running = true;
    windowStart = std::chrono::steady_clock::now();
}

void
Tracer::markWindow()
{
    const auto now = std::chrono::steady_clock::now();
    windowNs.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                             windowStart)
            .count()));
    windowStart = now;
}

void
Tracer::finish()
{
    tsc1 = hostTicks();
    wall1 = std::chrono::steady_clock::now();
    if (running) {
        markWindow();
        running = false;
    }
}

double
Tracer::wallNs() const
{
    return std::chrono::duration<double, std::nano>(wall1 - wall0)
        .count();
}

double
Tracer::nsPerTick() const
{
    // Calibrated over the whole process lifetime, so the TSC rate
    // needs no separate measurement.
    return tsc1 > tsc0 ? wallNs() / static_cast<double>(tsc1 - tsc0)
                       : 0.0;
}

void
Tracer::writeHostMetrics(json::Writer &w) const
{
    const double k = nsPerTick();
    const double wall = static_cast<double>(tsc1 - tsc0);
    const auto mean = [k](const Boundary &b) {
        return b.calls ? k * static_cast<double>(b.ticks) /
                             static_cast<double>(b.calls)
                       : 0.0;
    };

    w.key("boundaries");
    w.beginObject();
    const auto row = [&](const std::string &name, const Boundary &b,
                         const char *layer) {
        w.key(name);
        w.beginObject();
        w.keyValue("layer", layer);
        w.keyValue("calls", b.calls);
        w.keyValue("mean_ns", mean(b));
        w.keyValue("p50_ns", k * b.hist.quantile(0.5));
        w.keyValue("p99_ns", k * b.hist.quantile(0.99));
        w.keyValue("share", static_cast<double>(b.ticks) / wall);
        w.endObject();
    };
    row("next", nextCalls, "prep");
    for (unsigned i = 0; i < spans.size(); ++i) {
        const Span s = static_cast<Span>(i);
        if (spanLayer(s))
            row(std::string("span.") + spanName(s), spans[i],
                spanLayer(s));
    }
    for (unsigned i = 0; i < gaps.size(); ++i) {
        const Gap g = static_cast<Gap>(i);
        row(std::string("gap.") + gapName(g), gaps[i], gapLayer(g));
    }
    w.endObject();

    // Per-layer host shares of traced wall time; they sum to the
    // coverage of the boundary partition.
    const std::vector<std::string> layers = {
        "prep", "cpu", "os", "persist", "ssp", "hscc", "kindle", "bench",
        "trace"};
    std::vector<double> share(layers.size(), 0.0);
    const auto addTo = [&](const char *layer, std::uint64_t ticks) {
        for (std::size_t i = 0; i < layers.size(); ++i) {
            if (layers[i] == layer)
                share[i] += static_cast<double>(ticks) / wall;
        }
    };
    addTo("prep", nextCalls.ticks);
    addTo("trace", selfTicks);
    for (unsigned i = 0; i < spans.size(); ++i) {
        if (const char *layer = spanLayer(static_cast<Span>(i)))
            addTo(layer, spans[i].ticks);
    }
    for (unsigned i = 0; i < gaps.size(); ++i)
        addTo(gapLayer(static_cast<Gap>(i)), gaps[i].ticks);

    const auto spanB = [&](Span s) -> const Boundary & {
        return spans[static_cast<unsigned>(s)];
    };
    const auto gapB = [&](Gap g) -> const Boundary & {
        return gaps[static_cast<unsigned>(g)];
    };
    w.key("host");
    w.beginObject();
    w.keyValue("prep.next_ns", mean(nextCalls));
    w.keyValue("cpu.mem_op_ns", mean(gapB(Gap::memOp)));
    w.keyValue("cpu.mem_op_p99_ns",
               k * gapB(Gap::memOp).hist.quantile(0.99));
    w.keyValue("cpu.compute_op_ns", mean(gapB(Gap::computeOp)));
    w.keyValue("os.syscall_ns", mean(gapB(Gap::syscall)));
    w.keyValue("os.switch_ns", mean(gapB(Gap::sched)));
    w.keyValue("os.spawn_ns", mean(spanB(Span::spawn)));
    w.keyValue("os.reclaim_ns", mean(gapB(Gap::reclaim)));
    w.keyValue("persist.ckpt_ns", mean(gapB(Gap::ckpt)));
    w.keyValue("persist.ckpt_now_ns", mean(spanB(Span::checkpoint)));
    w.keyValue("persist.recover_ns", mean(spanB(Span::reboot)));
    w.keyValue("kindle.crash_ns", mean(spanB(Span::crash)));
    w.keyValue("ssp.commit_ns", mean(gapB(Gap::ssp)));
    w.keyValue("hscc.migrate_ns", mean(gapB(Gap::hscc)));
    w.keyValue("kindle.setup_ns", mean(spanB(Span::setup)));
    double coverage = 0;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        w.keyValue(layers[i] + ".host_share", share[i]);
        coverage += share[i];
    }
    w.keyValue("trace_coverage", coverage);
    w.endObject();
}

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    const double k = nsPerTick();
    const auto us = [&](std::uint64_t t) {
        return k * static_cast<double>(t) / 1000.0;
    };
    json::Writer w(os, 0);
    w.beginObject();
    w.keyValue("displayTimeUnit", "ns");
    w.key("traceEvents");
    w.beginArray();
    w.beginObject();
    w.keyValue("name", "process_name");
    w.keyValue("ph", "M");
    w.keyValue("pid", 1);
    w.keyValue("tid", 0);
    w.key("args");
    w.beginObject();
    w.keyValue("name", "kbench (host time)");
    w.endObject();
    w.endObject();
    for (const Event &e : events) {
        w.beginObject();
        w.keyValue("name", e.name);
        w.keyValue("cat", e.cat);
        w.keyValue("ph", "X");
        w.keyValue("ts", us(e.start - tsc0));
        w.keyValue("dur", us(e.dur));
        w.keyValue("pid", 1);
        // Coarse spans on one lane, sampled op gaps on another.
        w.keyValue("tid", e.op ? 2 : 1);
        w.key("args");
        w.beginObject();
        w.keyValue(e.op ? "op" : "id", e.id);
        w.keyValue("parent", e.parent);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

// ---------------------------------------------------------------------
// ProbeStream

ProbeStream::ProbeStream(Tracer &tracer,
                         std::unique_ptr<cpu::OpStream> inner,
                         RequestLog *requests)
    : tracer(tracer), inner(std::move(inner)), requests(requests)
{
}

ProbeStream::~ProbeStream()
{
    // A tenant torn down before its exit op was OOM-killed: every
    // request it had not completed is lost.
    if (requests && !exited) {
        ++requests->killedTenants;
        requests->lost += requests->requestsPerTenant - served;
    }
}

bool
ProbeStream::next(cpu::Op &op)
{
    if (tracer.running && (++tracer.fetches & windowMask) == 0)
        tracer.markWindow();
    if (!tracer._timed) {
        const bool more = inner->next(op);
        account(op, more);
        return more;
    }
    const std::uint64_t t0 = hostTicks();
    const bool more = inner->next(op);
    const std::uint64_t t1 = hostTicks();
    // Everything below is the probe's own cost, timed on its own so
    // it inflates neither the gap it closes nor the next one.
    tracer.closeGap(t0, this, false);
    tracer.nextCalls.add(t1 - t0);
    account(op, more);
    tracer.lastStream = this;
    tracer.lastKind = op.kind;
    tracer.lastEnded = !more;
    const std::uint64_t t2 = hostTicks();
    tracer.selfTicks += t2 - t1;
    tracer.gapStart = t2;
    return more;
}

void
ProbeStream::account(const cpu::Op &op, bool more)
{
    if (!more)
        return;
    ++tracer.emittedOps[static_cast<unsigned>(op.kind)];
    if (op.kind == cpu::Op::Kind::exit) {
        exited = true;
        ++tracer.exits;
    }
    if (!requests)
        return;

    // A request is due when its think op ends, is fetched when its
    // access op is handed out, and completes when the tenant fetches
    // its next op (the access has retired and the tenant runs again).
    const Tick now = tracer.sys->now();
    if (accessPending) {
        requests->latency.push_back(static_cast<double>(now) -
                                    static_cast<double>(due));
        ++requests->served;
        ++served;
        accessPending = false;
    }
    if (op.kind == cpu::Op::Kind::compute) {
        due = now + tracer.sys->core(0).clock().cyclesToTicks(op.size);
        thinkPending = true;
    } else if (thinkPending && (op.kind == cpu::Op::Kind::read ||
                                op.kind == cpu::Op::Kind::write)) {
        requests->schedLag.push_back(static_cast<double>(now) -
                                     static_cast<double>(due));
        accessPending = true;
        thinkPending = false;
    }
}

} // namespace kbench
