/**
 * @file
 * google-benchmark microbenchmarks of the tracing substrate: the
 * *host-side* cost of an instrumentation probe in each gating state.
 *
 * The interesting number is the disabled cost — probes are compiled
 * into every protocol hot path, so a run that never exports a trace
 * must not pay for them:
 *
 *   - NoSink:    no TraceSink registered on the thread (bench/test
 *                code outside a KindleSystem) — one thread-local load
 *                and a branch, the same as a disarmed profiler probe.
 *   - MaskedOff: sink present but the category mask excludes the
 *                probe (--trace-flags narrowing).
 *   - RingOnly:  flight recorder armed, span export off — the default
 *                KindleSystem configuration.
 *   - FullSpans: span collection for Chrome export (keeps every
 *                record; the unbounded-growth mode).
 *
 * BM_CrashSite is a crash-site probe's cost in a live system's
 * configuration (ring armed, an observer installed).
 */

#include <benchmark/benchmark.h>

#include "fault/fault.hh"
#include "trace/trace.hh"

namespace
{

using namespace kindle;

trace::TraceParams
paramsFor(bool spans, std::size_t ring, std::string categories = {})
{
    trace::TraceParams p;
    p.spans = spans;
    p.ringDepth = ring;
    p.categories = std::move(categories);
    return p;
}

void
BM_SpanNoSink(benchmark::State &state)
{
    // No ProbeScope: the probe reads a null sink from the thread's
    // registration and does nothing else.  This is the cost paid by
    // every probe in code not running under a KindleSystem.
    Tick clock = 0;
    for (auto _ : state) {
        KINDLE_TRACE_SPAN(checkpoint, "bench.span");
        benchmark::DoNotOptimize(++clock);
    }
}
BENCHMARK(BM_SpanNoSink);

void
BM_SpanMaskedOff(benchmark::State &state)
{
    Tick clock = 0;
    // Sink captures only "redo": the checkpoint-category probe is
    // rejected by the mask after the thread-local load.
    trace::TraceSink sink(paramsFor(false, 512, "redo"),
                          [&clock] { return clock; });
    trace::ProbeScope scope({.sink = &sink});
    for (auto _ : state) {
        KINDLE_TRACE_SPAN(checkpoint, "bench.span");
        benchmark::DoNotOptimize(++clock);
    }
}
BENCHMARK(BM_SpanMaskedOff);

void
BM_SpanRingOnly(benchmark::State &state)
{
    Tick clock = 0;
    trace::TraceSink sink(paramsFor(false, 512),
                          [&clock] { return clock; });
    trace::ProbeScope scope({.sink = &sink});
    for (auto _ : state) {
        KINDLE_TRACE_SPAN(checkpoint, "bench.span");
        benchmark::DoNotOptimize(++clock);
    }
}
BENCHMARK(BM_SpanRingOnly);

void
BM_SpanFull(benchmark::State &state)
{
    Tick clock = 0;
    // Fresh sink per batch so the record vector's growth amortizes
    // the way it does in a real bounded run.
    for (auto _ : state) {
        state.PauseTiming();
        trace::TraceSink sink(paramsFor(true, 512),
                              [&clock] { return clock; });
        trace::ProbeScope scope({.sink = &sink});
        state.ResumeTiming();
        for (int i = 0; i < 1024; ++i) {
            KINDLE_TRACE_SPAN(checkpoint, "bench.span");
            benchmark::DoNotOptimize(++clock);
        }
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SpanFull);

void
BM_SpanArgsMaskedOff(benchmark::State &state)
{
    Tick clock = 0;
    trace::TraceSink sink(paramsFor(false, 512, "redo"),
                          [&clock] { return clock; });
    trace::ProbeScope scope({.sink = &sink});
    std::uint64_t pid = 0;
    // The payload's arguments must not be evaluated when the span is
    // rejected.
    for (auto _ : state) {
        KINDLE_TRACE_SPAN_ARGS(checkpoint, "bench.span",
                               "pid={}", ++pid);
        benchmark::DoNotOptimize(++clock);
    }
}
BENCHMARK(BM_SpanArgsMaskedOff);

void
BM_InstantRingOnly(benchmark::State &state)
{
    Tick clock = 0;
    trace::TraceSink sink(paramsFor(false, 512),
                          [&clock] { return clock; });
    trace::ProbeScope scope({.sink = &sink});
    for (auto _ : state) {
        KINDLE_TRACE_INSTANT(fault, "bench.instant");
        benchmark::DoNotOptimize(++clock);
    }
}
BENCHMARK(BM_InstantRingOnly);

// The default configuration at the hottest argument-carrying sites:
// redo.append's instant and pt.wrappedStore's span.  The payload is
// stored, not formatted, so these cost about what their bare forms do.

void
BM_InstantArgsRingOnly(benchmark::State &state)
{
    Tick clock = 0;
    trace::TraceSink sink(paramsFor(false, 512),
                          [&clock] { return clock; });
    trace::ProbeScope scope({.sink = &sink});
    std::uint64_t seq = 0;
    for (auto _ : state) {
        KINDLE_TRACE_INSTANT_ARGS(redo, "bench.instant", "type={} seq={}",
                                  5u, ++seq);
        benchmark::DoNotOptimize(++clock);
    }
}
BENCHMARK(BM_InstantArgsRingOnly);

void
BM_SpanArgsRingOnly(benchmark::State &state)
{
    Tick clock = 0;
    trace::TraceSink sink(paramsFor(false, 512),
                          [&clock] { return clock; });
    trace::ProbeScope scope({.sink = &sink});
    Addr entry = 0;
    for (auto _ : state) {
        KINDLE_TRACE_SPAN_ARGS(pt, "bench.span", "entry={}", entry += 8);
        benchmark::DoNotOptimize(++clock);
    }
}
BENCHMARK(BM_SpanArgsRingOnly);

void
BM_CrashSite(benchmark::State &state)
{
    // A crash-site hit as a live system takes it: ring armed, an
    // observer installed, the site's name already interned.
    Tick clock = 0;
    trace::TraceSink sink(paramsFor(false, 512),
                          [&clock] { return clock; });
    fault::CrashInjector injector(fault::FaultPlan{},
                                  [&clock] { return clock; });
    injector.activate();
    std::uint64_t seen = 0;
    injector.setObserver(
        [&seen](const std::string &, std::uint64_t) { ++seen; });
    trace::ProbeScope scope({.sink = &sink, .injector = &injector});
    for (auto _ : state) {
        KINDLE_CRASH_SITE("ckpt.after_commit");
        benchmark::DoNotOptimize(++clock);
    }
    benchmark::DoNotOptimize(seen);
}
BENCHMARK(BM_CrashSite);

} // namespace

BENCHMARK_MAIN();
