#include "mem/mem_ctrl.hh"

#include <algorithm>

#include "base/logging.hh"
#include "trace/profiler.hh"

namespace kindle::mem
{

MemCtrl::MemCtrl(const MemCtrlParams &params,
                 const MemTimingParams &timing, AddrRange range)
    : _params(params),
      _range(range),
      iface(std::make_unique<MemInterface>(timing, range)),
      statGroup(std::string(timing.name) + "Ctrl",
                "memory controller with read/write buffers"),
      readStallTicks(statGroup.addScalar(
          "readStallTicks", "stall waiting for a read-buffer slot")),
      writeStallTicks(statGroup.addScalar(
          "writeStallTicks", "stall waiting for a write-buffer slot")),
      bulkOps(statGroup.addScalar("bulkOps", "bulk transfers serviced")),
      readLatency(statGroup.addHistogram(
          "readLatency", "read service latency (ticks)")),
      writeLatency(statGroup.addHistogram(
          "writeLatency", "posted-write accept latency (ticks)")),
      writeBufOccupancy(statGroup.addHistogram(
          "writeBufOccupancy", "write-buffer entries at accept"))
{
    kindle_assert(params.readBufferSize > 0, "read buffer cannot be 0");
    kindle_assert(params.writeBufferSize > 0, "write buffer cannot be 0");
    if (params.trackStalls) {
        writeStalls = &statGroup.addScalar(
            "writeStalls", "write submissions that found the buffer full");
        writeStallLatency = &statGroup.addHistogram(
            "writeStallLatency", "per-stall wait for a drain slot (ticks)");
    }
    statGroup.addChild(iface->stats());
}

Tick
MemCtrl::acquireSlot(std::priority_queue<Tick, std::vector<Tick>,
                                         std::greater<Tick>> &occupancy,
                     unsigned capacity, Tick now,
                     statistics::Scalar &stall_stat)
{
    // Retire entries that completed by now.
    while (!occupancy.empty() && occupancy.top() <= now)
        occupancy.pop();
    if (occupancy.size() < capacity)
        return now;
    // Buffer full: the requester stalls until the earliest entry
    // drains.
    const Tick freed = occupancy.top();
    occupancy.pop();
    stall_stat += static_cast<double>(freed - now);
    return freed;
}

Tick
MemCtrl::submit(const MemRequest &req, Tick now)
{
    kindle_assert(_range.contains(req.paddr),
                  "request routed to wrong controller");
    KINDLE_PROF_SCOPE(mem);

    switch (req.cmd) {
      case MemCmd::read: {
        const Tick start = acquireSlot(readQueue, _params.readBufferSize,
                                       now, readStallTicks);
        const Tick done = iface->access(
            MemCmd::read, req.paddr, start + _params.frontendLatency);
        readQueue.push(done);
        readLatency.sample(static_cast<double>(done - now));
        return done - now;
      }

      case MemCmd::write:
      case MemCmd::writeback: {
        const Tick start = acquireSlot(
            writeQueue, _params.writeBufferSize, now, writeStallTicks);
        if (start != now && writeStalls) {
            ++*writeStalls;
            writeStallLatency->sample(static_cast<double>(start - now));
        }
        const Tick accepted = start + _params.frontendLatency;
        // Drain happens in the background at device speed.
        const Tick drained = iface->access(req.cmd, req.paddr, accepted);
        writeQueue.push(drained);
        lastWriteDrain = std::max(lastWriteDrain, drained);
        lastAcceptedDrain = drained;
        writeLatency.sample(static_cast<double>(accepted - now));
        writeBufOccupancy.sample(
            static_cast<double>(writeQueue.size()));
        return accepted - now;
      }

      case MemCmd::bulkRead: {
        ++bulkOps;
        const Tick done = iface->bulkAccess(
            MemCmd::bulkRead, req.paddr, req.size,
            now + _params.frontendLatency);
        return done - now;
      }

      case MemCmd::bulkWrite: {
        ++bulkOps;
        const Tick done = iface->bulkAccess(
            MemCmd::bulkWrite, req.paddr, req.size,
            now + _params.frontendLatency);
        return done - now;
      }
    }
    kindle_panic("unhandled memory command");
}

void
MemCtrl::reset()
{
    while (!readQueue.empty())
        readQueue.pop();
    while (!writeQueue.empty())
        writeQueue.pop();
    lastWriteDrain = 0;
    lastAcceptedDrain = 0;
    iface->reset();
}

} // namespace kindle::mem
