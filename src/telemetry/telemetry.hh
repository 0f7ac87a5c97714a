/**
 * @file
 * Time-series telemetry: an event-queue-driven sampler that turns the
 * machine's end-of-run counters into bounded in-simulated-time series.
 *
 * PRs 7-8 gave the machine rich pressure/reclaim/IPI counters, but
 * totals hide the dynamics — occupancy ramps, reclaim storms, IPI
 * bursts — that hybrid-memory studies (Memos; the emerging-memory
 * simulation tutorial in PAPERS.md) show are the interesting signal.
 * The Sampler fires every `sampleInterval` ticks (default off),
 * captures one StatSnapshot of the whole machine, and extracts a
 * registered set of *channels*:
 *
 *  - level channels record the instantaneous value (gauge semantics:
 *    frame occupancy, resident pages, runqueue depth, redo-log fill);
 *  - rate channels record the per-interval delta of a monotonic
 *    counter (faults, migrations, demotions, IPIs), clamped to the
 *    raw value if the counter restarted (a crash/reboot resets stat
 *    trees), so deltas are non-negative and sum back to the
 *    end-of-run total.
 *
 * Channels name either a snapshot path (resolved through
 * StatSnapshot's O(1) index; a path absent from this sample — lazily
 * registered stats, post-crash teardown — reads as 0) or a callback
 * for quantities no stat exports.  Snapshot-based extraction means
 * the sampler holds no pointers into component stat trees, so
 * crash() tearing components down cannot dangle it.
 *
 * The series is bounded: at `maxSamples` the sampler halves the
 * series by merging adjacent sample pairs (rates add, levels keep the
 * later instant) and doubles its sampling stride, preserving both the
 * memory bound and the deltas-sum-to-totals invariant for arbitrary
 * run lengths.
 *
 * Export is one JSON or CSV document per system, routed per scenario
 * by the runner (TELEM_<scenario>.json next to BENCH_*.json).
 */

#ifndef KINDLE_TELEMETRY_TELEMETRY_HH
#define KINDLE_TELEMETRY_TELEMETRY_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"
#include "sim/simulation.hh"

namespace kindle::telemetry
{

/** Sampler configuration (KindleConfig::telemetry). */
struct TelemetryParams
{
    /** Ticks between samples; 0 disables the sampler entirely. */
    Tick sampleInterval = 0;

    /**
     * Series length bound; reaching it merges sample pairs and
     * doubles the stride.  Rounded down to even, minimum 2.
     */
    std::size_t maxSamples = 4096;
};

/**
 * The periodic sampling pass.  Owner constructs it with a function
 * that snapshots the machine's stat forest, registers channels, and
 * calls start(); crash handling clears the event queue, after which
 * restart() re-primes the rate baselines and resumes.
 */
class Sampler
{
  public:
    enum class Kind
    {
        level, ///< instantaneous value at the sample tick
        rate,  ///< delta of a monotonic counter since the last sample
    };

    using SnapshotFn = std::function<statistics::StatSnapshot()>;
    using ValueFn = std::function<double()>;

    /** One recorded sample: the tick plus one value per channel. */
    struct Sample
    {
        Tick tick = 0;
        std::vector<double> values;
    };

    Sampler(sim::Simulation &sim, const TelemetryParams &params,
            SnapshotFn snapshot_fn);

    /** Record @p stat_path from each sample's snapshot as @p name. */
    void addStatChannel(const std::string &name, Kind kind,
                        const std::string &stat_path);

    /** Record @p fn() at each sample as @p name. */
    void addCallbackChannel(const std::string &name, Kind kind,
                            ValueFn fn);

    /**
     * Prime rate baselines from the current state and schedule the
     * first sample.  No-op when sampleInterval is 0.
     */
    void start();

    /**
     * Resume after a crash/reboot cleared the event queue: re-primes
     * rate baselines (the rebooted machine's counters restarted) and
     * reschedules.  Already-recorded samples are kept.
     */
    void restart() { start(); }

    bool enabled() const { return interval != 0; }

    const std::vector<Sample> &samples() const { return series; }

    /** Ticks between recorded samples right now (interval × stride). */
    Tick effectiveInterval() const { return interval * stride; }

    /** Whole-series JSON document (channels + samples). */
    void writeJson(std::ostream &os) const;

    /** CSV: "tick,chan1,chan2,..." header plus one row per sample. */
    void writeCsv(std::ostream &os) const;

  private:
    struct Channel
    {
        std::string name;
        Kind kind;
        std::string statPath; ///< empty for callback channels
        ValueFn fn;           ///< null for stat channels
        double prevRaw = 0;   ///< rate channels: last raw reading
    };

    /** Raw reading of @p ch from @p snap (or its callback). */
    double rawValue(const Channel &ch,
                    const statistics::StatSnapshot &snap) const;

    /** Take and record one sample at the current tick. */
    void sampleOnce();

    /** Halve the series by merging adjacent pairs; double stride. */
    void decimate();

    sim::Simulation &sim;
    sim::PeriodicEvent timer;
    SnapshotFn snapshotFn;
    Tick interval;
    std::size_t maxSamples;

    std::vector<Channel> channels;
    std::vector<Sample> series;

    /** Interval multiplier; doubled by each decimation. */
    std::uint64_t stride = 1;
};

} // namespace kindle::telemetry

#endif // KINDLE_TELEMETRY_TELEMETRY_HH
