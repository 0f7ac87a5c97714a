/**
 * @file
 * The memory-trace vocabulary of Kindle's preparation sub-system.
 *
 * The paper's preparation component drives the real application under
 * Intel Pin, captures its virtual memory layout from /proc/pid/maps
 * (SniP for multi-threaded stacks), and reduces execution to a stream
 * of (period, offset, operation, size, area) tuples packed into a
 * disk image that the gemOS replay template consumes.  Kindle-repro
 * cannot run Pin in this environment, so the same tuple stream is
 * produced by statistically matched workload generators
 * (prep/workloads.hh) — the downstream simulation consumes an
 * identical format either way.
 */

#ifndef KINDLE_PREP_TRACE_HH
#define KINDLE_PREP_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"

namespace kindle::prep
{

/** Memory operation kind in a trace. */
enum class TraceOp : std::uint8_t
{
    read = 0,
    write = 1,
};

/** One captured access: the paper's 5-tuple. */
struct TraceRecord
{
    std::uint64_t period = 0;  ///< time of access (ns from start)
    std::uint64_t offset = 0;  ///< offset within the area
    std::uint32_t areaId = 0;  ///< which heap/stack area
    TraceOp op = TraceOp::read;
    std::uint8_t pad = 0;
    std::uint16_t size = 8;    ///< bytes accessed
};

static_assert(sizeof(TraceRecord) == 24);

/** Kinds of memory areas in the captured layout. */
enum class AreaKind : std::uint8_t
{
    heap = 0,
    stack = 1,   ///< per-thread stacks (captured via SniP)
    global = 2,
};

/** One area from the /proc/pid/maps-equivalent capture. */
struct AreaInfo
{
    std::uint32_t areaId = 0;
    AreaKind kind = AreaKind::heap;
    std::uint64_t sizeBytes = 0;
    std::string name;
};

/** The full captured layout. */
struct MemoryLayout
{
    std::vector<AreaInfo> areas;

    const AreaInfo *
    find(std::uint32_t area_id) const
    {
        for (const auto &a : areas)
            if (a.areaId == area_id)
                return &a;
        return nullptr;
    }

    std::uint64_t
    totalBytes() const
    {
        std::uint64_t total = 0;
        for (const auto &a : areas)
            total += a.sizeBytes;
        return total;
    }
};

/** Aggregate statistics over a trace (paper Table II). */
struct TraceStats
{
    std::uint64_t totalOps = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;

    double
    readPct() const
    {
        return totalOps ? 100.0 * static_cast<double>(reads) /
                              static_cast<double>(totalOps)
                        : 0.0;
    }

    double
    writePct() const
    {
        return totalOps ? 100.0 * static_cast<double>(writes) /
                              static_cast<double>(totalOps)
                        : 0.0;
    }
};

/**
 * A pull-based producer of trace records (either a workload generator
 * or a loaded disk image).
 *
 * reset() rewinds to the first record and must reproduce the identical
 * stream.  It only restores cursors and reseeds generators: it rebuilds
 * no table (a Zipfian normaliser, a layout), so callers may reset
 * freely (ReplayStream, computeStats, TraceImage::capture and
 * ImageFile::write each do) without paying set-up cost again.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** The captured memory layout the records refer to. */
    virtual const MemoryLayout &layout() const = 0;

    /** Produce the next record; false at end of trace. */
    virtual bool next(TraceRecord &rec) = 0;

    /** Rewind to the first record (deterministic; rebuilds no table). */
    virtual void reset() = 0;

    /** Human-readable benchmark name. */
    virtual const std::string &name() const = 0;
};

/** A fully materialized trace (what a disk image deserializes to). */
class TraceImage : public TraceSource
{
  public:
    TraceImage() = default;

    TraceImage(std::string name, MemoryLayout layout,
               std::vector<TraceRecord> records)
        : _name(std::move(name)),
          _layout(std::move(layout)),
          _records(std::move(records))
    {}

    /** Drain @p src into a materialized image. */
    static TraceImage capture(TraceSource &src);

    const MemoryLayout &layout() const override { return _layout; }
    const std::string &name() const override { return _name; }

    bool
    next(TraceRecord &rec) override
    {
        if (cursor >= _records.size())
            return false;
        rec = _records[cursor++];
        return true;
    }

    void reset() override { cursor = 0; }

    const std::vector<TraceRecord> &records() const { return _records; }

    /** Compute Table II-style aggregate statistics. */
    TraceStats stats() const;

  private:
    friend class ImageFile;

    std::string _name;
    MemoryLayout _layout;
    std::vector<TraceRecord> _records;
    std::size_t cursor = 0;
};

/** Compute stats by draining (and resetting) any source. */
TraceStats computeStats(TraceSource &src);

} // namespace kindle::prep

#endif // KINDLE_PREP_TRACE_HH
