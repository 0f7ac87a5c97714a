#include "prep/workloads.hh"

#include "base/logging.hh"

namespace kindle::prep
{

namespace
{

/** Per-thread stack area size. */
constexpr std::uint64_t stackBytes = 64 * oneKiB;

/** Fraction of accesses hitting thread stacks. */
constexpr double stackFraction = 0.01;

/** Append the per-thread stack areas to @p layout. */
void
addStacks(MemoryLayout &layout, unsigned threads,
          std::uint32_t first_id)
{
    for (unsigned t = 0; t < threads; ++t) {
        AreaInfo a;
        a.areaId = first_id + t;
        a.kind = AreaKind::stack;
        a.sizeBytes = stackBytes;
        a.name = "stack_t" + std::to_string(t);
        layout.areas.push_back(a);
    }
}

/** Emit an occasional stack access (returns true if one was made). */
bool
maybeStackOp(Random &rng, unsigned threads, std::uint32_t first_id,
             std::uint64_t clock_ns, std::vector<TraceRecord> &queue)
{
    if (!rng.chance(stackFraction))
        return false;
    TraceRecord rec;
    rec.period = clock_ns;
    rec.areaId = first_id + static_cast<std::uint32_t>(
                                rng.uniform(threads));
    rec.offset = rng.uniform(stackBytes - 8) & ~std::uint64_t(7);
    rec.op = rng.chance(0.5) ? TraceOp::read : TraceOp::write;
    rec.size = 8;
    queue.push_back(rec);
    return true;
}

} // namespace

const char *
benchmarkName(Benchmark b)
{
    switch (b) {
      case Benchmark::gapbsPr:
        return "Gapbs_pr";
      case Benchmark::g500Sssp:
        return "G500_sssp";
      case Benchmark::ycsbMem:
        return "Ycsb_mem";
    }
    return "?";
}

std::unique_ptr<TraceSource>
makeWorkload(Benchmark bench, const WorkloadParams &params)
{
    switch (bench) {
      case Benchmark::gapbsPr:
        return std::make_unique<GapbsPrTrace>(params);
      case Benchmark::g500Sssp:
        return std::make_unique<G500SsspTrace>(params);
      case Benchmark::ycsbMem:
        return std::make_unique<YcsbMemTrace>(params);
    }
    kindle_panic("unknown benchmark");
}

// ---------------------------------------------------------------------
// Gapbs_pr
// ---------------------------------------------------------------------

GapbsPrTrace::GapbsPrTrace(const WorkloadParams &params)
    : _params(params),
      nodes((std::uint64_t(1) << 21) / params.scaleDown),
      rng(params.seed),
      hotNodes(nodes, 0.8, params.seed ^ 0x9e37)
{
    kindle_assert(nodes >= 64, "scaleDown too aggressive");
    // Areas mirror the PageRank working set: CSR index + edges plus
    // the two rank arrays.
    _layout.areas = {
        {0, AreaKind::heap, nodes * 8, "csr_index"},
        {1, AreaKind::heap, nodes * 4 * 8, "csr_edges"},
        {2, AreaKind::heap, nodes * 8, "ranks"},
        {3, AreaKind::heap, nodes * 8, "ranks_next"},
    };
    addStacks(_layout, params.threads, 4);
}

void
GapbsPrTrace::reset()
{
    rng = Random(_params.seed);
    hotNodes = ZipfianGenerator(nodes, 0.8, _params.seed ^ 0x9e37);
    emitted = 0;
    curNode = 0;
    queue.clear();
    queueIdx = 0;
    clockNs = 0;
}

void
GapbsPrTrace::refillNode()
{
    queue.clear();
    queueIdx = 0;

    const std::uint64_t u = curNode % nodes;
    ++curNode;

    // read csr_index[u] — sequential sweep.
    queue.push_back({clockNs, u * 8, 0, TraceOp::read, 0, 8});
    // E[degree] tuned so the long-run mix lands at ~77/23.
    const unsigned degree = rng.chance(0.17) ? 2 : 1;
    for (unsigned e = 0; e < degree; ++e) {
        // edge word — near-sequential within the CSR.
        const std::uint64_t edge_off =
            ((u * 4 + e) * 8) % _layout.areas[1].sizeBytes;
        queue.push_back(
            {clockNs, edge_off, 1, TraceOp::read, 0, 8});
        // rank of the (power-law) destination node.
        const std::uint64_t dst = hotNodes.next();
        queue.push_back(
            {clockNs, dst * 8, 2, TraceOp::read, 0, 8});
    }
    // write ranks_next[u] — sequential.
    queue.push_back({clockNs, u * 8, 3, TraceOp::write, 0, 8});

    maybeStackOp(rng, _params.threads, 4, clockNs, queue);
    clockNs += 2 + queue.size();
}

bool
GapbsPrTrace::next(TraceRecord &rec)
{
    if (emitted >= _params.ops)
        return false;
    while (queueIdx >= queue.size())
        refillNode();
    rec = queue[queueIdx++];
    rec.period = clockNs;
    ++emitted;
    return true;
}

// ---------------------------------------------------------------------
// G500_sssp
// ---------------------------------------------------------------------

G500SsspTrace::G500SsspTrace(const WorkloadParams &params)
    : _params(params),
      adjBytes((128 * oneMiB) / params.scaleDown),
      distEntries((2 * oneMiB) / params.scaleDown * 8 / 8),
      rng(params.seed)
{
    kindle_assert(adjBytes >= pageSize && distEntries >= 64,
                  "scaleDown too aggressive");
    _layout.areas = {
        {0, AreaKind::heap, adjBytes, "adjacency"},
        {1, AreaKind::heap, distEntries * 8, "dist"},
        {2, AreaKind::heap, (8 * oneMiB) / params.scaleDown,
         "frontier"},
    };
    addStacks(_layout, params.threads, 3);
}

void
G500SsspTrace::reset()
{
    rng = Random(_params.seed);
    emitted = 0;
    frontierHead = 0;
    frontierTail = 0;
    queue.clear();
    queueIdx = 0;
    clockNs = 0;
}

void
G500SsspTrace::refillStep()
{
    queue.clear();
    queueIdx = 0;

    const std::uint64_t frontier_bytes = _layout.areas[2].sizeBytes;
    // Pop a vertex from the frontier (sequential read).
    queue.push_back({clockNs,
                     (frontierHead * 8) % frontier_bytes, 2,
                     TraceOp::read, 0, 8});
    ++frontierHead;

    // Relax two edges: scattered adjacency reads, distance checks,
    // probabilistic distance writes and frontier pushes.
    for (unsigned e = 0; e < 2; ++e) {
        const std::uint64_t adj_off =
            rng.uniform(adjBytes / 8) * 8;
        queue.push_back({clockNs, adj_off, 0, TraceOp::read, 0, 8});
        const std::uint64_t v = rng.uniform(distEntries);
        queue.push_back({clockNs, v * 8, 1, TraceOp::read, 0, 8});
        if (rng.chance(0.6)) {
            queue.push_back(
                {clockNs, v * 8, 1, TraceOp::write, 0, 8});
        }
        if (rng.chance(0.58)) {
            queue.push_back({clockNs,
                             (frontierTail * 8) % frontier_bytes, 2,
                             TraceOp::write, 0, 8});
            ++frontierTail;
        }
    }

    maybeStackOp(rng, _params.threads, 3, clockNs, queue);
    clockNs += 2 + queue.size();
}

bool
G500SsspTrace::next(TraceRecord &rec)
{
    if (emitted >= _params.ops)
        return false;
    while (queueIdx >= queue.size())
        refillStep();
    rec = queue[queueIdx++];
    rec.period = clockNs;
    ++emitted;
    return true;
}

// ---------------------------------------------------------------------
// Ycsb_mem
// ---------------------------------------------------------------------

YcsbMemTrace::YcsbMemTrace(const WorkloadParams &params)
    : _params(params),
      records((std::uint64_t(1) << 21) / params.scaleDown),
      recordBytes(128),
      rng(params.seed)
{
    kindle_assert(records >= 64, "scaleDown too aggressive");
    keys = std::make_unique<ZipfianGenerator>(records, 0.99,
                                              params.seed ^ 0x51ab);
    _layout.areas = {
        {0, AreaKind::heap, records * recordBytes, "kvstore"},
        {1, AreaKind::heap, records * 8, "hashindex"},
    };
    addStacks(_layout, params.threads, 2);
}

void
YcsbMemTrace::reset()
{
    rng = Random(_params.seed);
    keys = std::make_unique<ZipfianGenerator>(records, 0.99,
                                              _params.seed ^ 0x51ab);
    emitted = 0;
    queue.clear();
    queueIdx = 0;
    clockNs = 0;
}

void
YcsbMemTrace::refillOp()
{
    queue.clear();
    queueIdx = 0;

    const std::uint64_t key = keys->next();
    // Index probe.
    queue.push_back({clockNs, key * 8, 1, TraceOp::read, 0, 8});

    const std::uint64_t rec_off = key * recordBytes;
    if (rng.chance(0.51)) {
        // Update: read header, write two value words.
        queue.push_back({clockNs, rec_off, 0, TraceOp::read, 0, 8});
        queue.push_back(
            {clockNs, rec_off + 16, 0, TraceOp::write, 0, 8});
        queue.push_back(
            {clockNs, rec_off + 64, 0, TraceOp::write, 0, 8});
    } else {
        // Read: header + value.
        queue.push_back({clockNs, rec_off, 0, TraceOp::read, 0, 8});
        queue.push_back(
            {clockNs, rec_off + 64, 0, TraceOp::read, 0, 8});
    }

    maybeStackOp(rng, _params.threads, 2, clockNs, queue);
    clockNs += 2 + queue.size();
}

bool
YcsbMemTrace::next(TraceRecord &rec)
{
    if (emitted >= _params.ops)
        return false;
    while (queueIdx >= queue.size())
        refillOp();
    rec = queue[queueIdx++];
    rec.period = clockNs;
    ++emitted;
    return true;
}

} // namespace kindle::prep
