/**
 * @file
 * Patrol scrubber implementation.
 */

#include "mem/scrubber.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/str.hh"
#include "mem/hybrid_memory.hh"
#include "trace/profiler.hh"
#include "trace/trace.hh"

namespace kindle::mem
{

PatrolScrubber::PatrolScrubber(sim::Simulation &sim, HybridMemory &memory,
                               ScrubParams params)
    : sim(sim),
      memory(memory),
      _params(params),
      timer("nvm-scrub", sim::Event::Priority::scrub, sim,
            [this] { patrol(); }),
      statGroup("scrubber", "NVM patrol scrubber"),
      patrolChunks(statGroup.addScalar("patrolChunks",
                                       "patrol chunks inspected")),
      patrolPasses(statGroup.addScalar(
          "patrolPasses", "full sweeps of the NVM range completed")),
      scrubCorrected(statGroup.addScalar(
          "scrubCorrected", "single-bit lines healed by scrub rewrite")),
      scrubUncorrectable(statGroup.addScalar(
          "scrubUncorrectable", "uncorrectable lines found on patrol")),
      retirementsRequested(statGroup.addScalar(
          "retirementsRequested", "bad frames reported for retirement"))
{
    kindle_assert(_params.interval > 0, "scrub interval must be non-zero");
    kindle_assert(_params.chunkBytes >= pageSize,
                  "scrub chunk smaller than a frame");
}

PatrolScrubber::~PatrolScrubber() = default;

void
PatrolScrubber::start()
{
    timer.start(_params.interval);
}

void
PatrolScrubber::stop()
{
    timer.stop();
}

void
PatrolScrubber::patrol()
{
    KINDLE_PROF_SCOPE(scrub);
    ++patrolChunks;
    NvmMediaModel *media = memory.media();
    if (!media)
        return;

    const AddrRange &nvm = memory.nvmRange();
    const std::uint64_t chunk = std::min(_params.chunkBytes, nvm.size());
    const Addr begin = nvm.start() + cursor;
    const Addr end = std::min<Addr>(begin + chunk, nvm.end());
    KINDLE_TRACE_SPAN_ARGS(scrub, "scrub.patrol",
                           "begin={} bytes={}", begin, end - begin);

    // Snapshot the faulty lines in this window first: rewriting during
    // the walk would mutate the map under the iterator.
    std::vector<std::pair<Addr, unsigned>> faulty;
    media->forEachFaultyLine(AddrRange(begin, end),
                             [&](Addr line, unsigned bits) {
                                 faulty.emplace_back(line, bits);
                             });

    for (const auto &[line, bits] : faulty) {
        if (bits == 1) {
            // Correctable: ECC recovers the data, the rewrite
            // re-programs the cells.  A stuck cell survives the
            // rewrite; one leftover bit is still within SECDED's
            // capability, two or more mean the frame must go.
            const unsigned leftover = media->scrubRewrite(line);
            if (leftover == 0) {
                ++scrubCorrected;
            } else if (leftover >= 2) {
                ++scrubUncorrectable;
                if (handler) {
                    ++retirementsRequested;
                    handler(roundDown(line, pageSize), "uncorrectable");
                }
            }
        } else {
            ++scrubUncorrectable;
            if (handler) {
                ++retirementsRequested;
                handler(roundDown(line, pageSize), "uncorrectable");
            }
        }
    }

    // Wear-out is reported as soon as the media notices, independent
    // of where the patrol cursor happens to be.
    for (const Addr frame : media->takeExhaustedFrames()) {
        if (handler) {
            ++retirementsRequested;
            handler(frame, "endurance");
        }
    }

    cursor += end - begin;
    if (nvm.start() + cursor >= nvm.end()) {
        cursor = 0;
        ++patrolPasses;
    }
}

} // namespace kindle::mem
