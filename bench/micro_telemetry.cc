/**
 * @file
 * google-benchmark microbenchmarks of the telemetry substrate: the
 * *host-side* cost of a self-profiler probe in each gating state, and
 * the per-sample cost paid by the time-series sampler.
 *
 * The interesting number is the disabled cost — KINDLE_PROF_SCOPE
 * probes sit in the event-dispatch loop and every subsystem entry
 * point, so a run without --prof must not pay for them:
 *
 *   - NoProfiler: no Profiler registered on the thread (the default
 *                 for every bench and test) — one thread-local load
 *                 and a branch.
 *   - Active:     profiler attached; the scope takes two host clock
 *                 reads plus the self-time bookkeeping.
 *   - Nested:     parent/child scopes, exercising the child-time
 *                 subtraction that makes category times exclusive.
 *
 * The sampler has no probe in any hot path — when --sample-interval
 * is 0 no event is ever scheduled, so its disabled cost is exactly
 * zero.  What matters instead is the per-sample cost, which is
 * dominated by the full stat-tree snapshot; Snapshot times that on a
 * default-config KindleSystem, and ChannelLookup times the per-channel
 * O(1) path lookup into the snapshot's name index.
 */

#include <benchmark/benchmark.h>

#include "base/stats.hh"
#include "kindle/kindle.hh"
#include "trace/profiler.hh"

namespace
{

using namespace kindle;

void
BM_ProfScopeNoProfiler(benchmark::State &state)
{
    // No ProbeScope: the probe reads a null profiler from the thread's
    // registration and skips the clock reads.  This is the cost paid by every
    // probe in an unprofiled run.
    std::uint64_t x = 0;
    for (auto _ : state) {
        KINDLE_PROF_SCOPE(event);
        benchmark::DoNotOptimize(++x);
    }
}
BENCHMARK(BM_ProfScopeNoProfiler);

void
BM_ProfScopeActive(benchmark::State &state)
{
    trace::Profiler prof;
    trace::ProbeScope scope({.profiler = &prof});
    std::uint64_t x = 0;
    for (auto _ : state) {
        KINDLE_PROF_SCOPE(event);
        benchmark::DoNotOptimize(++x);
    }
}
BENCHMARK(BM_ProfScopeActive);

void
BM_ProfScopeNested(benchmark::State &state)
{
    trace::Profiler prof;
    trace::ProbeScope scope({.profiler = &prof});
    std::uint64_t x = 0;
    for (auto _ : state) {
        KINDLE_PROF_SCOPE(sched);
        {
            KINDLE_PROF_SCOPE(cache);
            benchmark::DoNotOptimize(++x);
        }
    }
}
BENCHMARK(BM_ProfScopeNested);

void
BM_SamplerSnapshot(benchmark::State &state)
{
    // The dominant per-sample cost: snapshotting the whole stat tree
    // of a default-config system.  At the default 1 ms period this
    // runs ~once per simulated millisecond.
    KindleSystem sys{KindleConfig{}};
    for (auto _ : state) {
        statistics::StatSnapshot snap = sys.snapshotStats();
        benchmark::DoNotOptimize(snap);
    }
}
BENCHMARK(BM_SamplerSnapshot);

void
BM_ChannelLookup(benchmark::State &state)
{
    // Per-channel cost on top of the snapshot: one search of the
    // snapshot's sorted map (the same path fuzz oracles take through
    // StatSnapshot::getOr).
    KindleSystem sys{KindleConfig{}};
    const statistics::StatSnapshot snap = sys.snapshotStats();
    const std::string path = "kernel.dramAlloc.framesInUse";
    double v = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(v += snap.getOr(path, 0));
}
BENCHMARK(BM_ChannelLookup);

} // namespace

BENCHMARK_MAIN();
