/**
 * @file
 * The hybrid DRAM+NVM physical memory system.
 *
 * Kindle arranges DRAM and NVM in one flat physical address space
 * (DRAM at zero, NVM directly above it), publishes the layout via an
 * e820 map, and routes every memory request to the controller of the
 * backing technology.  Functional data lives in a volatile DRAM store
 * and a durability-tracking NVM store; timing flows through the two
 * controllers.
 */

#ifndef KINDLE_MEM_HYBRID_MEMORY_HH
#define KINDLE_MEM_HYBRID_MEMORY_HH

#include <memory>

#include "base/stats.hh"
#include "fault/fault.hh"
#include "mem/backing_store.hh"
#include "mem/bios_e820.hh"
#include "mem/mem_ctrl.hh"
#include "mem/nvm_media.hh"

namespace kindle::mem
{

/** Capacity and controller configuration for the hybrid system. */
struct HybridMemoryParams
{
    std::uint64_t dramBytes = 3 * oneGiB;  ///< paper Table I
    std::uint64_t nvmBytes = 2 * oneGiB;   ///< paper Table I
    MemCtrlParams dramCtrl{64, 64, 10 * oneNs};
    MemCtrlParams nvmCtrl{64, 48, 10 * oneNs};  ///< Table I buffers
    /** Device timings; swap the NVM entry to study other
     *  technologies (§V-D of the paper). */
    MemTimingParams dramTiming = ddr4_2400Params();
    MemTimingParams nvmTiming = pcmParams();
    /** NVM media error/wear model (disabled when not enabled()). */
    fault::MediaFaultPlan media{};
};

/** The flat-address hybrid memory: router + stores + controllers. */
class HybridMemory
{
  public:
    explicit HybridMemory(const HybridMemoryParams &params);

    const E820Map &e820() const { return biosMap; }
    const AddrRange &dramRange() const { return _dramRange; }
    const AddrRange &nvmRange() const { return _nvmRange; }

    /** Which technology backs @p addr. */
    MemType
    typeOf(Addr addr) const
    {
        return _nvmRange.contains(addr) ? MemType::nvm : MemType::dram;
    }

    /**
     * Timing: submit a request; returns requester-visible latency.
     * NVM write/writeback commands also commit the line's volatile
     * overlay (data has architecturally reached the device).
     */
    Tick submit(const MemRequest &req, Tick now);

    /** @name Functional data access (no timing). */
    /// @{
    void readData(Addr addr, void *dst, std::uint64_t size) const;
    void writeData(Addr addr, const void *src, std::uint64_t size);
    /** NVM write that is immediately durable (flushed bulk copies). */
    void writeDataDurable(Addr addr, const void *src,
                          std::uint64_t size);
    /** Read only crash-surviving NVM content. */
    void readNvmDurable(Addr addr, void *dst, std::uint64_t size) const;

    template <typename T>
    T
    readT(Addr addr) const
    {
        T v{};
        readData(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    writeT(Addr addr, const T &v)
    {
        writeData(addr, &v, sizeof(T));
    }
    /// @}

    /** Mark one NVM line durable (device-confirmed clwb completion). */
    void commitNvmLine(Addr line_addr);

    /** NVM lines still volatile (would be lost on crash). */
    std::size_t nvmPendingLines() const { return nvmStore.pendingLines(); }

    /** NVM lines buffered in the controller, drain still pending. */
    std::size_t
    nvmInflightLines() const
    {
        return nvmStore.inflightLines();
    }

    /**
     * Retire every buffered NVM write whose device drain completed by
     * @p now.  Called after a store fence has waited out the drains.
     */
    void drainWrites(Tick now) { nvmStore.drainTo(now); }

    /**
     * Power failure at @p now: DRAM contents, un-flushed NVM lines and
     * still-draining controller-buffer writes vanish (the latter per
     * @p loss — optionally tearing one in-flight 64-bit store);
     * controller state resets.
     */
    CrashOutcome crash(Tick now, const PowerLossModel &loss);

    /** The media reliability model, or null when not configured. */
    NvmMediaModel *media() { return _media.get(); }
    const NvmMediaModel *media() const { return _media.get(); }

    MemCtrl &dramCtrl() { return *_dramCtrl; }
    MemCtrl &nvmCtrl() { return *_nvmCtrl; }
    const MemCtrl &dramCtrl() const { return *_dramCtrl; }
    const MemCtrl &nvmCtrl() const { return *_nvmCtrl; }

    statistics::StatGroup &stats() { return statGroup; }

  private:
    MemCtrl &ctrlFor(Addr addr);

    HybridMemoryParams _params;
    E820Map biosMap;
    AddrRange _dramRange;
    AddrRange _nvmRange;

    BackingStore dramStore;
    DurableStore nvmStore;
    std::unique_ptr<NvmMediaModel> _media;

    std::unique_ptr<MemCtrl> _dramCtrl;
    std::unique_ptr<MemCtrl> _nvmCtrl;

    statistics::StatGroup statGroup;
    statistics::Scalar &crashes;
    statistics::Scalar &crashLinesLost;
    statistics::Scalar &crashTornWords;
};

} // namespace kindle::mem

#endif // KINDLE_MEM_HYBRID_MEMORY_HH
