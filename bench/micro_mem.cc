/**
 * @file
 * google-benchmark microbenchmarks of the memory substrate: raw
 * DRAM/NVM device latencies and controller buffering behaviour.
 * These validate the Table I configuration rather than reproduce a
 * paper artifact; the reported "items" are simulated accesses and the
 * custom counters report *simulated* latency per access.  The
 * functional backing-store cases report host time per call over a
 * sparse and a dense frame.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "mem/hybrid_memory.hh"

namespace
{

using namespace kindle;

mem::HybridMemoryParams
benchParams()
{
    mem::HybridMemoryParams p;
    p.dramBytes = 256 * oneMiB;
    p.nvmBytes = 256 * oneMiB;
    return p;
}

void
BM_DramReadLatency(benchmark::State &state)
{
    mem::HybridMemory memory(benchParams());
    Tick now = 0;
    Tick total = 0;
    std::uint64_t n = 0;
    Addr addr = 0;
    for (auto _ : state) {
        const Tick lat = memory.submit(
            {mem::MemCmd::read, addr, lineSize}, now);
        total += lat;
        now += lat;
        addr = (addr + 4096) % (128 * oneMiB);
        ++n;
    }
    state.counters["simNsPerAccess"] =
        ticksToNs(total) / static_cast<double>(n);
}
BENCHMARK(BM_DramReadLatency);

void
BM_NvmReadLatency(benchmark::State &state)
{
    mem::HybridMemory memory(benchParams());
    const Addr base = memory.nvmRange().start();
    Tick now = 0;
    Tick total = 0;
    std::uint64_t n = 0;
    Addr addr = 0;
    for (auto _ : state) {
        const Tick lat = memory.submit(
            {mem::MemCmd::read, base + addr, lineSize}, now);
        total += lat;
        now += lat;
        addr = (addr + 4096) % (128 * oneMiB);
        ++n;
    }
    state.counters["simNsPerAccess"] =
        ticksToNs(total) / static_cast<double>(n);
}
BENCHMARK(BM_NvmReadLatency);

void
BM_NvmPostedWrite(benchmark::State &state)
{
    mem::HybridMemory memory(benchParams());
    const Addr base = memory.nvmRange().start();
    Tick now = 0;
    Tick total = 0;
    std::uint64_t n = 0;
    Addr addr = 0;
    for (auto _ : state) {
        const Tick lat = memory.submit(
            {mem::MemCmd::write, base + addr, lineSize}, now);
        total += lat;
        // Issue as fast as the buffer admits: the steady state is the
        // device drain rate, not the cheap posted-accept latency.
        now += std::max<Tick>(lat, oneNs);
        addr = (addr + lineSize) % (128 * oneMiB);
        ++n;
    }
    state.counters["simNsPerAccess"] =
        ticksToNs(total) / static_cast<double>(n);
}
BENCHMARK(BM_NvmPostedWrite);

void
BM_NvmBulkPageCopyCost(benchmark::State &state)
{
    mem::HybridMemory memory(benchParams());
    const Addr base = memory.nvmRange().start();
    Tick now = 0;
    Tick total = 0;
    std::uint64_t n = 0;
    for (auto _ : state) {
        const Tick r = memory.submit(
            {mem::MemCmd::bulkRead, base, pageSize}, now);
        now += r;
        const Tick w = memory.submit(
            {mem::MemCmd::bulkWrite, base + oneMiB, pageSize}, now);
        now += w;
        total += r + w;
        ++n;
    }
    state.counters["simUsPerPageCopy"] =
        ticksToUs(total) / static_cast<double>(n);
}
BENCHMARK(BM_NvmBulkPageCopyCost);

/**
 * Fill state.range(0) evenly spaced lines of one DRAM frame (2: a
 * sparse frame, 64: a dense one) and return their addresses.
 */
std::vector<Addr>
heldLines(mem::HybridMemory &memory, const benchmark::State &state)
{
    const auto lines = static_cast<std::uint64_t>(state.range(0));
    std::vector<Addr> addrs;
    for (std::uint64_t i = 0; i < lines; ++i) {
        addrs.push_back(0x1000 + i * (linesPerPage / lines) * lineSize);
        memory.writeT<std::uint64_t>(addrs.back(), i + 1);
    }
    return addrs;
}

/** Host cost of one functional 8-byte DRAM store to a held line. */
void
BM_FunctionalBackingStoreWrite(benchmark::State &state)
{
    mem::HybridMemory memory(benchParams());
    const std::vector<Addr> addrs = heldLines(memory, state);
    std::size_t i = 0;
    std::uint64_t v = 0;
    for (auto _ : state) {
        memory.writeT<std::uint64_t>(addrs[i], ++v);
        if (++i == addrs.size())
            i = 0;
    }
}
BENCHMARK(BM_FunctionalBackingStoreWrite)->Arg(2)->Arg(64);

/** Host cost of one functional 8-byte DRAM load from a held line. */
void
BM_FunctionalBackingStoreRead(benchmark::State &state)
{
    mem::HybridMemory memory(benchParams());
    const std::vector<Addr> addrs = heldLines(memory, state);
    std::size_t i = 0;
    std::uint64_t sum = 0;
    for (auto _ : state) {
        sum += memory.readT<std::uint64_t>(addrs[i]);
        if (++i == addrs.size())
            i = 0;
    }
    benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_FunctionalBackingStoreRead)->Arg(2)->Arg(64);

} // namespace

BENCHMARK_MAIN();
