#include "mem/hybrid_memory.hh"

#include "base/logging.hh"
#include "fault/fault.hh"

namespace kindle::mem
{

HybridMemory::HybridMemory(const HybridMemoryParams &params)
    : _params(params),
      biosMap(E820Map::standard(params.dramBytes, params.nvmBytes)),
      _dramRange(0, params.dramBytes),
      _nvmRange(AddrRange::withSize(params.dramBytes, params.nvmBytes)),
      dramStore(_dramRange),
      nvmStore(_nvmRange),
      _dramCtrl(std::make_unique<MemCtrl>(
          params.dramCtrl, params.dramTiming, _dramRange)),
      _nvmCtrl(std::make_unique<MemCtrl>(params.nvmCtrl,
                                         params.nvmTiming, _nvmRange)),
      statGroup("hybridMem", "hybrid DRAM+NVM physical memory"),
      crashes(statGroup.addScalar("crashes", "simulated power failures")),
      crashLinesLost(statGroup.addScalar(
          "crashLinesLost",
          "NVM lines lost from the write buffer across crashes")),
      crashTornWords(statGroup.addScalar(
          "crashTornWords", "64-bit stores torn by power loss"))
{
    kindle_assert(params.dramBytes >= 16 * oneMiB,
                  "DRAM capacity too small to boot the simulated OS");
    statGroup.addChild(_dramCtrl->stats());
    statGroup.addChild(_nvmCtrl->stats());
    if (params.media.enabled()) {
        _media = std::make_unique<NvmMediaModel>(_nvmRange, params.media);
        nvmStore.attachMedia(_media.get());
        statGroup.addChild(_media->stats());
    }
}

MemCtrl &
HybridMemory::ctrlFor(Addr addr)
{
    if (_nvmRange.contains(addr))
        return *_nvmCtrl;
    kindle_assert(_dramRange.contains(addr),
                  "physical address {} outside installed memory", addr);
    return *_dramCtrl;
}

Tick
HybridMemory::submit(const MemRequest &req, Tick now)
{
    MemCtrl &ctrl = ctrlFor(req.paddr);
    const Tick latency = ctrl.submit(req, now);
    if (_nvmRange.contains(req.paddr)) {
        // A line-granular write command enters the controller's posted
        // write buffer; the line is on media once its drain completes.
        if (req.cmd == MemCmd::write || req.cmd == MemCmd::writeback) {
            nvmStore.commitLine(req.paddr, now,
                                ctrl.lastAcceptedWriteDrain());
            fault::onDurableNvmWrite(now);
        } else if (req.cmd == MemCmd::bulkWrite) {
            // Bulk transfers bypass the buffer (device-level DMA); the
            // matching writeDataDurable() call moves the bytes.
            fault::onDurableNvmWrite(now);
        }
    }
    return latency;
}

void
HybridMemory::readData(Addr addr, void *dst, std::uint64_t size) const
{
    if (_nvmRange.contains(addr)) {
        nvmStore.read(addr, dst, size);
    } else {
        dramStore.read(addr, dst, size);
    }
}

void
HybridMemory::writeData(Addr addr, const void *src, std::uint64_t size)
{
    if (_nvmRange.contains(addr)) {
        nvmStore.writeVolatile(addr, src, size);
    } else {
        dramStore.write(addr, src, size);
    }
}

void
HybridMemory::writeDataDurable(Addr addr, const void *src,
                               std::uint64_t size)
{
    kindle_assert(_nvmRange.contains(addr),
                  "durable write outside the NVM range");
    nvmStore.writeDurable(addr, src, size);
}

void
HybridMemory::readNvmDurable(Addr addr, void *dst,
                             std::uint64_t size) const
{
    kindle_assert(_nvmRange.contains(addr),
                  "durable read outside the NVM range");
    nvmStore.readDurable(addr, dst, size);
}

void
HybridMemory::commitNvmLine(Addr line_addr)
{
    if (_nvmRange.contains(line_addr))
        nvmStore.commitLineImmediate(line_addr);
}

CrashOutcome
HybridMemory::crash(Tick now, const PowerLossModel &loss)
{
    ++crashes;
    const CrashOutcome out = nvmStore.crash(now, loss);
    crashLinesLost += static_cast<double>(out.linesLost);
    crashTornWords += static_cast<double>(out.tornWords);
    dramStore.clear();
    _dramCtrl->reset();
    _nvmCtrl->reset();
    return out;
}

} // namespace kindle::mem
