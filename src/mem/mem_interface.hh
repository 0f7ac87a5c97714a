/**
 * @file
 * Device-level timing models for DRAM (DDR4-2400) and NVM (PCM).
 *
 * A MemInterface models banks with open-row buffers and a shared data
 * bus.  Latency for one line-sized access is:
 *
 *   start   = max(now, bank busy, bus busy)
 *   device  = row-hit or row-miss service time (read/write specific)
 *   latency = start + device - now
 *
 * Bulk transfers (page copies, log appends) use a per-line streaming
 * cost so multi-kilobyte operations remain cheap to simulate while
 * occupying the device realistically.
 */

#ifndef KINDLE_MEM_MEM_INTERFACE_HH
#define KINDLE_MEM_MEM_INTERFACE_HH

#include <vector>

#include "base/addr_range.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "mem/packet.hh"

namespace kindle::mem
{

/** Timing/geometry parameters for one memory technology. */
struct MemTimingParams
{
    const char *name;
    MemType type;

    unsigned banks;          ///< independent banks
    std::uint64_t rowBytes;  ///< row-buffer size per bank

    Tick readRowHit;   ///< read service, row open
    Tick readRowMiss;  ///< read service, row closed/conflict
    Tick writeRowHit;  ///< write service, row open
    Tick writeRowMiss; ///< write service, row closed/conflict

    Tick burst;        ///< data-bus occupancy per 64 B line

    Tick bulkReadPerLine;   ///< streaming read cost per line
    Tick bulkWritePerLine;  ///< streaming write cost per line
};

/** DDR4-2400 16x4-like parameters (paper Table I). */
MemTimingParams ddr4_2400Params();

/**
 * PCM parameters in the spirit of Song et al. [39]: reads several times
 * slower than DRAM, writes slower still and strongly asymmetric.
 */
MemTimingParams pcmParams();

/**
 * STT-MRAM-like parameters: reads close to DRAM, writes ~2x slower
 * than reads — the "fast NVM" point for §V-D technology studies.
 */
MemTimingParams sttMramParams();

/**
 * ReRAM-like parameters: between PCM and STT-MRAM on reads, strongly
 * asymmetric writes.
 */
MemTimingParams rramParams();

/** One memory device (all banks of one technology). */
class MemInterface
{
  public:
    MemInterface(const MemTimingParams &params, AddrRange range);

    const MemTimingParams &params() const { return _params; }
    const AddrRange &range() const { return _range; }

    /**
     * Service one line-sized access beginning no earlier than @p now.
     * @return the absolute tick at which the access completes.
     */
    Tick access(MemCmd cmd, Addr addr, Tick now);

    /**
     * Service a streaming transfer of @p bytes.
     * @return the absolute completion tick.
     */
    Tick bulkAccess(MemCmd cmd, Addr addr, std::uint64_t bytes,
                    Tick now);

    /** Statistics group for this device. */
    statistics::StatGroup &stats() { return statGroup; }
    const statistics::StatGroup &stats() const { return statGroup; }

    /** Forget open rows and busy state (used at reboot). */
    void reset();

  private:
    struct Bank
    {
        std::uint64_t openRow = ~std::uint64_t(0);
        Tick busyUntil = 0;
    };

    /** Row of @p addr: the device offset over the row size. */
    std::uint64_t
    rowOf(Addr addr) const
    {
        return _range.offsetOf(addr) >> rowShift;
    }

    /**
     * Row-interleaved bank mapping: consecutive rows hit different
     * banks, which is the common open-page address mapping.
     */
    Bank &bankOf(std::uint64_t row) { return bankState[row % _params.banks]; }

    MemTimingParams _params;
    AddrRange _range;
    /** log2(rowBytes). */
    unsigned rowShift;

    std::vector<Bank> bankState;
    Tick busBusyUntil = 0;

    statistics::StatGroup statGroup;
    statistics::Scalar &readReqs;
    statistics::Scalar &writeReqs;
    statistics::Scalar &rowHits;
    statistics::Scalar &rowMisses;
    statistics::Scalar &bytesTransferred;
    statistics::Scalar &totalServiceTicks;
};

} // namespace kindle::mem

#endif // KINDLE_MEM_MEM_INTERFACE_HH
