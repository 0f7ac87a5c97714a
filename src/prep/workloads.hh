/**
 * @file
 * Synthetic workload tracers standing in for the Pin-traced
 * applications of the paper's Table II.
 *
 * Each generator produces a deterministic (period, offset, operation,
 * size, area) stream whose op count, read/write mix and locality
 * character match the corresponding benchmark:
 *
 *  - Gapbs_pr   (GAP PageRank):  77% reads / 23% writes.  Sequential
 *    sweeps over per-node arrays plus power-law-skewed rank reads of
 *    neighbour nodes — a concentrated hot set.
 *  - G500_sssp  (Graph500 SSSP): 68% reads / 32% writes.  Scattered
 *    adjacency reads over a large footprint with frontier/distance
 *    updates — little reuse, many distinct pages.
 *  - Ycsb_mem   (YCSB in-memory): 71% reads / 29% writes.  Zipfian
 *    key selection over a record store — a skewed hot set with a long
 *    tail.
 *
 * Multi-threaded stack capture (the paper uses SniP) is represented
 * by per-thread stack areas receiving a small fraction of accesses.
 */

#ifndef KINDLE_PREP_WORKLOADS_HH
#define KINDLE_PREP_WORKLOADS_HH

#include <memory>

#include "base/random.hh"
#include "prep/trace.hh"

namespace kindle::prep
{

/** Common generator knobs. */
struct WorkloadParams
{
    std::uint64_t ops = 10000000;  ///< paper: 10 M per benchmark
    std::uint64_t seed = 42;
    unsigned threads = 4;          ///< stack areas (SniP capture)
    /**
     * Footprint divisor for quick tests: 1 = paper-scale footprints
     * (~100-250 MiB), larger values shrink every area proportionally.
     */
    unsigned scaleDown = 1;
};

/** Identifier for the three standard benchmarks. */
enum class Benchmark
{
    gapbsPr,
    g500Sssp,
    ycsbMem,
};

const char *benchmarkName(Benchmark b);

/** Instantiate the generator for @p bench. */
std::unique_ptr<TraceSource> makeWorkload(Benchmark bench,
                                          const WorkloadParams &params);

/** GAP PageRank-like tracer. */
class GapbsPrTrace : public TraceSource
{
  public:
    explicit GapbsPrTrace(const WorkloadParams &params);

    const MemoryLayout &layout() const override { return _layout; }
    const std::string &name() const override { return _name; }
    bool next(TraceRecord &rec) override;
    void reset() override;

  private:
    void refillNode();

    WorkloadParams _params;
    std::string _name = "Gapbs_pr";
    MemoryLayout _layout;
    std::uint64_t nodes;
    Random rng;
    ZipfianGenerator hotNodes;
    std::uint64_t emitted = 0;
    std::uint64_t curNode = 0;
    std::vector<TraceRecord> queue;  ///< ops for the current node
    std::size_t queueIdx = 0;
    std::uint64_t clockNs = 0;
};

/** Graph500 SSSP-like tracer. */
class G500SsspTrace : public TraceSource
{
  public:
    explicit G500SsspTrace(const WorkloadParams &params);

    const MemoryLayout &layout() const override { return _layout; }
    const std::string &name() const override { return _name; }
    bool next(TraceRecord &rec) override;
    void reset() override;

  private:
    void refillStep();

    WorkloadParams _params;
    std::string _name = "G500_sssp";
    MemoryLayout _layout;
    std::uint64_t adjBytes;
    std::uint64_t distEntries;
    Random rng;
    std::uint64_t emitted = 0;
    std::uint64_t frontierHead = 0;
    std::uint64_t frontierTail = 0;
    std::vector<TraceRecord> queue;
    std::size_t queueIdx = 0;
    std::uint64_t clockNs = 0;
};

/** YCSB workload-A-like in-memory KV tracer. */
class YcsbMemTrace : public TraceSource
{
  public:
    explicit YcsbMemTrace(const WorkloadParams &params);

    const MemoryLayout &layout() const override { return _layout; }
    const std::string &name() const override { return _name; }
    bool next(TraceRecord &rec) override;
    void reset() override;

  private:
    void refillOp();

    WorkloadParams _params;
    std::string _name = "Ycsb_mem";
    MemoryLayout _layout;
    std::uint64_t records;
    std::uint64_t recordBytes;
    Random rng;
    std::unique_ptr<ZipfianGenerator> keys;
    std::uint64_t emitted = 0;
    std::vector<TraceRecord> queue;
    std::size_t queueIdx = 0;
    std::uint64_t clockNs = 0;
};

} // namespace kindle::prep

#endif // KINDLE_PREP_WORKLOADS_HH
