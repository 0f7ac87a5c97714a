/**
 * @file
 * The replay template: turns a captured trace into a gemOS program.
 *
 * This is Kindle's analogue of the generated template code the paper
 * describes: it performs heap/stack allocations matching the captured
 * layout (mmap with MAP_NVM for areas placed in NVM), then replays
 * every (period, offset, operation, size, area) tuple as loads and
 * stores at the areas' virtual addresses, and finally unmaps
 * everything.  Optionally the whole body is wrapped in a failure
 * atomic section (checkpoint_start/checkpoint_end) for the SSP study.
 */

#ifndef KINDLE_PREP_REPLAY_HH
#define KINDLE_PREP_REPLAY_HH

#include <memory>
#include <vector>

#include "cpu/op.hh"
#include "prep/trace.hh"

namespace kindle::prep
{

/** Replay configuration. */
struct ReplayConfig
{
    bool heapsInNvm = true;   ///< MAP_NVM for heap/global areas
    bool stacksInNvm = true;  ///< MAP_NVM for stack areas
    bool wrapInFase = false;  ///< emit checkpoint_start/_end
    Addr baseVaddr = Addr(0x200000000);  ///< first area placement
    /** Compute cycles inserted per replayed record (think time). */
    Cycles computePerRecord = 2;
    /** Records per inserted compute burst. */
    unsigned computeBatch = 8;
};

/** The replayable program. */
class ReplayStream : public cpu::OpStream
{
  public:
    ReplayStream(TraceSource &source, const ReplayConfig &config);

    bool next(cpu::Op &op) override;

    /** Planned virtual base address of @p area_id. */
    Addr areaBase(std::uint32_t area_id) const;

    /** Records replayed so far. */
    std::uint64_t recordsReplayed() const { return replayed; }

  private:
    enum class Phase
    {
        setup,
        faseOpen,
        body,
        faseClose,
        teardown,
        exit,
        done,
    };

    /** One captured area's placement. */
    struct PlannedArea
    {
        std::uint32_t id = 0;
        Addr base = 0;
        std::uint64_t len = 0;        ///< mapped bytes (page-rounded)
        std::uint64_t sizeBytes = 0;  ///< the captured size
        bool nvm = false;             ///< mapped MAP_NVM
    };

    /** The planned area of @p area_id; fatal when unknown. */
    const PlannedArea &area(std::uint32_t area_id) const;

    TraceSource &source;
    ReplayConfig config;

    /** Every area of the layout, in layout order. */
    std::vector<PlannedArea> plan;

    Phase phase = Phase::setup;
    std::size_t setupIdx = 0;
    std::size_t teardownIdx = 0;
    std::uint64_t replayed = 0;
    unsigned sinceCompute = 0;
};

/**
 * A ReplayStream that owns its trace source.  ReplayStream proper
 * only references the source (benches keep the trace alive on the
 * stack); scenario factories hand the whole program to another thread,
 * so trace and stream must travel together.
 */
class OwningReplayStream : public cpu::OpStream
{
  public:
    OwningReplayStream(std::unique_ptr<TraceSource> source,
                       const ReplayConfig &config)
        : trace(std::move(source)), stream(*trace, config)
    {}

    bool next(cpu::Op &op) override { return stream.next(op); }

    std::uint64_t recordsReplayed() const
    {
        return stream.recordsReplayed();
    }

  private:
    std::unique_ptr<TraceSource> trace;
    ReplayStream stream;
};

} // namespace kindle::prep

#endif // KINDLE_PREP_REPLAY_HH
