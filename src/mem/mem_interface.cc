#include "mem/mem_interface.hh"

#include <algorithm>

#include "base/intmath.hh"
#include "base/logging.hh"

namespace kindle::mem
{

MemTimingParams
ddr4_2400Params()
{
    MemTimingParams p{};
    p.name = "DDR4-2400";
    p.type = MemType::dram;
    p.banks = 16;
    p.rowBytes = 8 * oneKiB;
    p.readRowHit = 15 * oneNs;   // ~tCAS + transfer
    p.readRowMiss = 45 * oneNs;  // tRP + tRCD + tCAS
    p.writeRowHit = 15 * oneNs;
    p.writeRowMiss = 45 * oneNs;
    p.burst = 3330;              // 64 B @ 19.2 GB/s ≈ 3.33 ns
    p.bulkReadPerLine = 4 * oneNs;
    p.bulkWritePerLine = 4 * oneNs;
    return p;
}

MemTimingParams
pcmParams()
{
    MemTimingParams p{};
    p.name = "PCM";
    p.type = MemType::nvm;
    p.banks = 8;
    p.rowBytes = 4 * oneKiB;
    p.readRowHit = 60 * oneNs;
    p.readRowMiss = 150 * oneNs;
    p.writeRowHit = 300 * oneNs;
    p.writeRowMiss = 450 * oneNs;
    p.burst = 13320;             // ~4x slower interface than DDR4
    p.bulkReadPerLine = 16 * oneNs;
    p.bulkWritePerLine = 60 * oneNs;
    return p;
}

MemTimingParams
sttMramParams()
{
    MemTimingParams p{};
    p.name = "STT-MRAM";
    p.type = MemType::nvm;
    p.banks = 16;
    p.rowBytes = 4 * oneKiB;
    p.readRowHit = 20 * oneNs;
    p.readRowMiss = 35 * oneNs;
    p.writeRowHit = 40 * oneNs;
    p.writeRowMiss = 60 * oneNs;
    p.burst = 4000;
    p.bulkReadPerLine = 5 * oneNs;
    p.bulkWritePerLine = 10 * oneNs;
    return p;
}

MemTimingParams
rramParams()
{
    MemTimingParams p{};
    p.name = "ReRAM";
    p.type = MemType::nvm;
    p.banks = 8;
    p.rowBytes = 4 * oneKiB;
    p.readRowHit = 40 * oneNs;
    p.readRowMiss = 100 * oneNs;
    p.writeRowHit = 150 * oneNs;
    p.writeRowMiss = 250 * oneNs;
    p.burst = 8000;
    p.bulkReadPerLine = 10 * oneNs;
    p.bulkWritePerLine = 30 * oneNs;
    return p;
}

MemInterface::MemInterface(const MemTimingParams &params, AddrRange range)
    : _params(params),
      _range(range),
      rowShift(floorLog2(params.rowBytes)),
      bankState(params.banks),
      statGroup(params.name, "memory device timing model"),
      readReqs(statGroup.addScalar("readReqs", "line reads serviced")),
      writeReqs(statGroup.addScalar("writeReqs", "line writes serviced")),
      rowHits(statGroup.addScalar("rowHits", "row-buffer hits")),
      rowMisses(statGroup.addScalar("rowMisses", "row-buffer misses")),
      bytesTransferred(
          statGroup.addScalar("bytes", "total bytes transferred")),
      totalServiceTicks(statGroup.addScalar(
          "serviceTicks", "sum of device service time"))
{
    kindle_assert(params.banks > 0, "memory device needs banks");
    kindle_assert(isPowerOf2(params.rowBytes), "row size must be pow2");
}

Tick
MemInterface::access(MemCmd cmd, Addr addr, Tick now)
{
    kindle_assert(_range.contains(addr),
                  "device access outside address range");
    const std::uint64_t row = rowOf(addr);
    Bank &bank = bankOf(row);
    const bool hit = bank.openRow == row;

    const bool is_write = isWriteCmd(cmd);
    const Tick service =
        is_write ? (hit ? _params.writeRowHit : _params.writeRowMiss)
                 : (hit ? _params.readRowHit : _params.readRowMiss);

    const Tick start = std::max({now, bank.busyUntil, busBusyUntil});
    const Tick done = start + service;

    bank.openRow = row;
    bank.busyUntil = done;
    busBusyUntil = start + _params.burst;

    if (is_write)
        ++writeReqs;
    else
        ++readReqs;
    if (hit)
        ++rowHits;
    else
        ++rowMisses;
    bytesTransferred += static_cast<double>(lineSize);
    totalServiceTicks += static_cast<double>(done - now);

    return done;
}

Tick
MemInterface::bulkAccess(MemCmd cmd, Addr addr, std::uint64_t bytes,
                         Tick now)
{
    kindle_assert(_range.contains(addr),
                  "bulk access outside address range");
    const std::uint64_t lines = divCeil(std::max<std::uint64_t>(bytes, 1),
                                        lineSize);
    const bool is_write = isWriteCmd(cmd);
    const Tick per_line =
        is_write ? _params.bulkWritePerLine : _params.bulkReadPerLine;

    // A streaming transfer opens each row once; charge one row miss to
    // start plus bandwidth-limited line costs, and hold the touched
    // bank busy for the duration.
    const std::uint64_t row = rowOf(addr);
    Bank &bank = bankOf(row);
    const Tick start = std::max({now, bank.busyUntil, busBusyUntil});
    const Tick first =
        is_write ? _params.writeRowMiss : _params.readRowMiss;
    const Tick done = start + first + lines * per_line;

    bank.openRow = row;
    bank.busyUntil = done;
    busBusyUntil = done;

    if (is_write)
        ++writeReqs;
    else
        ++readReqs;
    ++rowMisses;
    bytesTransferred += static_cast<double>(lines * lineSize);
    totalServiceTicks += static_cast<double>(done - now);

    return done;
}

void
MemInterface::reset()
{
    for (auto &b : bankState) {
        b.openRow = ~std::uint64_t(0);
        b.busyUntil = 0;
    }
    busBusyUntil = 0;
}

} // namespace kindle::mem
