/**
 * @file
 * Memory controller with finite read/write buffers.
 *
 * The paper's Table I configures the NVM controller with a 64-entry
 * read buffer and a 48-entry write buffer; this controller models both
 * queues.  Writes are posted: they complete into the write buffer at
 * frontend latency and drain to the device in the background, so NVM
 * writes look cheap until the buffer saturates — at which point the
 * requester stalls for a device-speed drain slot.  That saturation
 * behaviour is what makes large checkpoint bursts expensive, which the
 * persistence experiments depend on.
 */

#ifndef KINDLE_MEM_MEM_CTRL_HH
#define KINDLE_MEM_MEM_CTRL_HH

#include <memory>
#include <queue>
#include <vector>

#include "base/stats.hh"
#include "mem/mem_interface.hh"

namespace kindle::mem
{

/** Controller-level configuration. */
struct MemCtrlParams
{
    unsigned readBufferSize = 64;
    unsigned writeBufferSize = 48;
    Tick frontendLatency = 10 * oneNs;
    /**
     * Publish per-stall backpressure stats (stall count + per-stall
     * latency histogram) for the write-buffer-full path.  Off by
     * default so the baseline stat layout is unchanged; pressure
     * experiments switch it on to see controller backpressure.
     */
    bool trackStalls = false;
};

/** One channel: queues in front of one MemInterface. */
class MemCtrl
{
  public:
    MemCtrl(const MemCtrlParams &params, const MemTimingParams &timing,
            AddrRange range);

    const AddrRange &range() const { return _range; }

    /**
     * Submit a request at tick @p now.
     * @return the latency visible to the requester: full service time
     *         for reads; buffer-accept time for posted writes.
     */
    Tick submit(const MemRequest &req, Tick now);

    /** Device + controller stats. */
    statistics::StatGroup &stats() { return statGroup; }
    const MemInterface &device() const { return *iface; }
    MemInterface &device() { return *iface; }

    /**
     * Tick at which every posted write accepted so far has reached
     * the device (what a store fence must wait for).
     */
    Tick writesDrainedAt() const { return lastWriteDrain; }

    /**
     * Drain-completion tick of the most recently accepted posted
     * write.  The durability layer uses this to decide whether that
     * specific write survives a power cut before the buffer drains.
     */
    Tick lastAcceptedWriteDrain() const { return lastAcceptedDrain; }

    /** Forget queued state (reboot). */
    void reset();

  private:
    /** Stall until a slot frees in @p occupancy if at capacity. */
    Tick acquireSlot(std::priority_queue<Tick, std::vector<Tick>,
                                         std::greater<Tick>> &occupancy,
                     unsigned capacity, Tick now,
                     statistics::Scalar &stall_stat);

    MemCtrlParams _params;
    AddrRange _range;
    std::unique_ptr<MemInterface> iface;

    /** Completion ticks of in-flight reads / draining writes. */
    std::priority_queue<Tick, std::vector<Tick>, std::greater<Tick>>
        readQueue;
    std::priority_queue<Tick, std::vector<Tick>, std::greater<Tick>>
        writeQueue;
    Tick lastWriteDrain = 0;
    Tick lastAcceptedDrain = 0;

    statistics::StatGroup statGroup;
    statistics::Scalar &readStallTicks;
    statistics::Scalar &writeStallTicks;
    statistics::Scalar &bulkOps;

    /** Requester-visible latency distributions (log-bucketed ticks):
     *  full service time for reads, buffer-accept time for writes —
     *  the write histogram's tail is the saturation stall. */
    statistics::Histogram &readLatency;
    statistics::Histogram &writeLatency;
    /** Write-buffer entries in flight, sampled at each accept. */
    statistics::Histogram &writeBufOccupancy;

    /** Buffer-full backpressure; registered only when
     *  MemCtrlParams::trackStalls is set. */
    statistics::Scalar *writeStalls = nullptr;
    statistics::Histogram *writeStallLatency = nullptr;
};

} // namespace kindle::mem

#endif // KINDLE_MEM_MEM_CTRL_HH
