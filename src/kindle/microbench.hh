/**
 * @file
 * Micro-benchmark programs used by the paper's process-persistence
 * evaluation (§III-A): sequential allocate-and-touch, strided sparse
 * allocation, and the munmap/mmap churn benchmark of Tables III/IV.
 *
 * Programs are run-length scripts: one record per phase (an Op
 * repeated at a constant address stride), expanded Op by Op as the
 * kernel drains the stream, so a script's host footprint follows its
 * phases, not the pages it touches.  ScriptBuilder provides the small
 * DSL used both here and in tests/examples.
 */

#ifndef KINDLE_KINDLE_MICROBENCH_HH
#define KINDLE_KINDLE_MICROBENCH_HH

#include <memory>
#include <vector>

#include "cpu/op.hh"

namespace kindle::micro
{

/** An OpStream over a run-length script built by ScriptBuilder. */
class ScriptStream : public cpu::OpStream
{
  public:
    /** @c count (>= 1) copies of @c op, the i-th at op.addr + i * stride. */
    struct Run
    {
        cpu::Op op;
        std::uint64_t count = 1;
        Addr stride = 0;
    };

    bool
    next(cpu::Op &op) override
    {
        if (cursor >= runs.size())
            return false;
        const Run &run = runs[cursor];
        op = run.op;
        op.addr += repeat * run.stride;
        if (++repeat == run.count) {
            repeat = 0;
            ++cursor;
        }
        return true;
    }

    /** Stored runs: the script's host footprint, not its Op count. */
    std::size_t runCount() const { return runs.size(); }

  private:
    friend class ScriptBuilder;

    explicit ScriptStream(std::vector<Run> runs_arg)
        : runs(std::move(runs_arg))
    {}

    std::vector<Run> runs;
    std::size_t cursor = 0;
    /** Ops of runs[cursor] already produced. */
    std::uint64_t repeat = 0;
};

/**
 * Fluent builder for scripted programs.  Each call appends Ops; an Op
 * of the open run's kind, size and flags whose address continues the
 * run's stride extends the run instead of starting a new one, so
 * per-page loops (touchPages, strideAlloc's mmaps) store one record.
 */
class ScriptBuilder
{
  public:
    /** mmap at a fixed address. */
    ScriptBuilder &mmapFixed(Addr addr, std::uint64_t size, bool nvm);

    ScriptBuilder &munmap(Addr addr, std::uint64_t size);
    ScriptBuilder &mremap(Addr addr, std::uint64_t old_size,
                          std::uint64_t new_size);
    ScriptBuilder &mprotect(Addr addr, std::uint64_t size,
                            std::uint32_t prot);

    /** One 8-byte store to the first word of every page in range. */
    ScriptBuilder &touchPages(Addr addr, std::uint64_t size);

    /** One 8-byte load from the first word of every page in range. */
    ScriptBuilder &readPages(Addr addr, std::uint64_t size);

    ScriptBuilder &read(Addr addr, std::uint64_t size = 8);
    ScriptBuilder &write(Addr addr, std::uint64_t size = 8);
    ScriptBuilder &compute(Cycles cycles);
    ScriptBuilder &faseStart();
    ScriptBuilder &faseEnd();
    ScriptBuilder &exit();

    std::unique_ptr<ScriptStream> build();

  private:
    /** Append @p count copies of @p op, @p stride bytes apart. */
    ScriptBuilder &append(const cpu::Op &op, std::uint64_t count = 1,
                          Addr stride = 0);

    std::vector<ScriptStream::Run> runs;
};

/**
 * Figure 4a workload: mmap(MAP_NVM) an @p alloc_bytes region and
 * sequentially touch every page, then unmap.
 */
std::unique_ptr<ScriptStream> seqAllocTouch(std::uint64_t alloc_bytes,
                                            bool nvm = true);

/**
 * Figure 4b workload: @p count 4 KiB MAP_NVM allocations placed
 * @p stride_bytes apart (1 GiB / 2 MiB / 4 KiB in the paper), each
 * touched once, then unmapped.  Optional @p access_rounds of
 * read+compute extend the run across checkpoint intervals without
 * further page-table modifications.
 */
std::unique_ptr<ScriptStream> strideAlloc(std::uint64_t stride_bytes,
                                          unsigned count = 10,
                                          bool nvm = true,
                                          unsigned access_rounds = 0,
                                          Cycles round_compute = 30000);

/**
 * Tables III/IV workload: allocate a 512 MiB arena and touch it, then
 * @p rounds times munmap+mmap the first @p churn_bytes and access the
 * reallocated region @p access_rounds times, finally unmap everything.
 */
std::unique_ptr<ScriptStream> churnBench(std::uint64_t arena_bytes,
                                         std::uint64_t churn_bytes,
                                         unsigned rounds = 2,
                                         unsigned access_rounds = 1,
                                         bool nvm = true);

/** Base virtual address used by the scripted benchmarks. */
constexpr Addr scriptBase = Addr(0x400000000);

} // namespace kindle::micro

#endif // KINDLE_KINDLE_MICROBENCH_HH
