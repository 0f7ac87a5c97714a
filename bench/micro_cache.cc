/**
 * @file
 * google-benchmark microbenchmarks of the cache hierarchy: simulated
 * hit/miss latencies per level and host-side simulation throughput
 * (how many simulated accesses per host second the framework
 * sustains — the "lightweight" claim of the paper).
 *
 * The hit, miss and clwb cases take the machine's core count as their
 * argument (1 and 4): with more than one core every access also goes
 * through the MESI directory, so /4 minus /1 is its host cost.  The
 * ping-pong case bounces one dirty line between two cores, which
 * makes every access a directory transition with coherence messages.
 * The large-footprint case drives the directory alone over as many
 * lines as the 4-core fleet run tracks, so its table is as big as
 * fleet's and most probes miss the host caches.
 */

#include <benchmark/benchmark.h>

#include "cache/coherence.hh"
#include "cache/hierarchy.hh"

namespace
{

using namespace kindle;

struct Rig
{
    explicit Rig(unsigned cores = 1)
        : memory([] {
              mem::HybridMemoryParams p;
              p.dramBytes = 256 * oneMiB;
              p.nvmBytes = 256 * oneMiB;
              return p;
          }()),
          hier(cache::HierarchyParams{}, memory, cores)
    {}

    explicit Rig(const benchmark::State &state)
        : Rig(static_cast<unsigned>(state.range(0)))
    {}

    mem::HybridMemory memory;
    cache::Hierarchy hier;
};

void
BM_L1HitPath(benchmark::State &state)
{
    Rig rig(state);
    Tick now = 0;
    rig.hier.access(mem::MemCmd::read, 0x1000, 8, now);
    Tick total = 0;
    std::uint64_t n = 0;
    for (auto _ : state) {
        const auto res =
            rig.hier.access(mem::MemCmd::read, 0x1000, 8, now);
        now += res.latency;
        total += res.latency;
        ++n;
    }
    state.counters["simNsPerHit"] =
        ticksToNs(total) / static_cast<double>(n);
    state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_L1HitPath)->Arg(1)->Arg(4);

void
BM_LlcMissToDram(benchmark::State &state)
{
    Rig rig(state);
    Tick now = 0;
    Addr addr = 0;
    Tick total = 0;
    std::uint64_t n = 0;
    for (auto _ : state) {
        const auto res =
            rig.hier.access(mem::MemCmd::read, addr, 8, now);
        now += res.latency;
        total += res.latency;
        addr += 4 * pageSize;  // defeat all cache levels
        if (addr >= 128 * oneMiB)
            addr = 0;
        ++n;
    }
    state.counters["simNsPerMiss"] =
        ticksToNs(total) / static_cast<double>(n);
    state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LlcMissToDram)->Arg(1)->Arg(4);

void
BM_LlcMissToNvm(benchmark::State &state)
{
    Rig rig(state);
    const Addr base = rig.memory.nvmRange().start();
    Tick now = 0;
    Addr addr = 0;
    Tick total = 0;
    std::uint64_t n = 0;
    for (auto _ : state) {
        const auto res = rig.hier.access(mem::MemCmd::read,
                                         base + addr, 8, now);
        now += res.latency;
        total += res.latency;
        addr += 4 * pageSize;
        if (addr >= 128 * oneMiB)
            addr = 0;
        ++n;
    }
    state.counters["simNsPerMiss"] =
        ticksToNs(total) / static_cast<double>(n);
    state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LlcMissToNvm)->Arg(1)->Arg(4);

void
BM_ClwbDirtyLine(benchmark::State &state)
{
    Rig rig(state);
    const Addr base = rig.memory.nvmRange().start();
    Tick now = 0;
    for (auto _ : state) {
        rig.hier.access(mem::MemCmd::write, base, 8, now);
        now += rig.hier.clwb(base, now);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClwbDirtyLine)->Arg(1)->Arg(4);

void
BM_SharedLinePingPong(benchmark::State &state)
{
    // Cores 0 and 1 take turns writing one line: each write finds the
    // other core's modified copy and invalidates it.
    Rig rig(2);
    Tick now = 0;
    Tick total = 0;
    std::uint64_t n = 0;
    for (auto _ : state) {
        const auto res = rig.hier.access(static_cast<CpuId>(n & 1),
                                         mem::MemCmd::write, 0x2000, 8,
                                         now);
        now += res.latency;
        total += res.latency;
        ++n;
    }
    state.counters["simNsPerAccess"] =
        ticksToNs(total) / static_cast<double>(n);
    state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SharedLinePingPong);

void
BM_DirectoryLargeFootprint(benchmark::State &state)
{
    // 125 k distinct lines, about what fleet tracks at seed 1: the
    // table sits at 2^18 slots.  Four cores pick random lines, one
    // access in four a write, so every MESI state and transition
    // occurs.  Time per iteration is host ns per directory access.
    constexpr unsigned cores = 4;
    constexpr std::uint64_t lines = 125000;
    const auto lineAddr = [](std::uint64_t i) {
        return i * 3 * lineSize;  // spread, as a run's footprint is
    };
    cache::MesiDirectory dir(cores);
    for (std::uint64_t i = 0; i < lines; ++i)
        dir.access(lineAddr(i), static_cast<CpuId>(i % cores), false);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (auto _ : state) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const auto act =
            dir.access(lineAddr(x % lines),
                       static_cast<CpuId>(x >> 62), (x >> 32) % 4 == 0);
        benchmark::DoNotOptimize(act);
    }
    state.counters["slots"] = static_cast<double>(dir.capacity());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DirectoryLargeFootprint);

void
BM_SimulationThroughputMixed(benchmark::State &state)
{
    // Host-side throughput over a mixed working set: the headline
    // "how fast does Kindle simulate" number.
    Rig rig;
    Tick now = 0;
    std::uint64_t i = 0;
    for (auto _ : state) {
        const Addr addr = (i * 2891) % (32 * oneMiB);
        const auto res = rig.hier.access(
            (i & 3) ? mem::MemCmd::read : mem::MemCmd::write,
            addr & ~std::uint64_t(7), 8, now);
        now += res.latency;
        ++i;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulationThroughputMixed);

} // namespace

BENCHMARK_MAIN();
