/**
 * @file
 * Shadow Sub-Paging (SSP) prototype [31] on Kindle.
 *
 * SSP gives every tracked NVM virtual page two physical pages and
 * routes cache-line-granular modifications to the non-current copy.
 * The TLB is extended with the shadow frame and two bitmaps (current,
 * updated); MSRs communicate the tracked virtual range and the SSP
 * cache base to the translation hardware.  At each consistency
 * interval end the modified bitmaps are spilled to the SSP cache,
 * dirty lines are written back with clwb, and a commit record is
 * fenced out.  A background thread consolidates diverged page pairs
 * for entries that left the TLB.
 */

#ifndef KINDLE_SSP_SSP_ENGINE_HH
#define KINDLE_SSP_SSP_ENGINE_HH

#include "cpu/core.hh"
#include "os/kernel.hh"
#include "ssp/ssp_cache.hh"

namespace kindle::ssp
{

/** SSP configuration. */
struct SspParams
{
    Tick consistencyInterval = 5 * oneMs;   ///< paper: 1/5/10 ms
    Tick consolidationInterval = oneMs;     ///< paper: fixed 1 ms
};

/** The engine: translation-hardware extension + OS support. */
class SspEngine : public cpu::CoreHooks, public os::OsEventListener
{
  public:
    SspEngine(const SspParams &params, os::Kernel &kernel);
    ~SspEngine() override;

    SspEngine(const SspEngine &) = delete;
    SspEngine &operator=(const SspEngine &) = delete;

    /** Attach hardware hooks and start the periodic machinery. */
    void start();

    /** Detach everything. */
    void stop();

    /** @name cpu::CoreHooks. */
    /// @{
    void onTlbFill(cpu::TlbEntry &entry, const cpu::Pte &leaf) override;
    void onDataWrite(cpu::TlbEntry &entry, Addr vaddr,
                     std::uint64_t size) override;
    void onTlbEvict(const cpu::TlbEntry &entry) override;
    /// @}

    /** @name os::OsEventListener. */
    /// @{
    void onFaseStart(os::Process &proc) override;
    void onFaseEnd(os::Process &proc) override;
    void onFrameUnmapped(os::Process &proc, Addr vaddr, Addr frame,
                         bool nvm) override;
    /// @}

    /** Force an interval-end commit now (checkpoint_end semantics). */
    void commitInterval();

    /** One consolidation pass over TLB-evicted entries. */
    void consolidate();

    SspCache &cache() { return sspCache; }

    std::uint64_t shadowPagesAllocated() const
    {
        return static_cast<std::uint64_t>(shadowAllocs.value());
    }

    statistics::StatGroup &stats() { return statGroup; }

  private:
    /** Is @p vaddr inside the MSR-programmed tracked range? */
    bool inTrackedRange(Pid pid, Addr vaddr) const;

    /** Program the MSRs from the process's NVM VMAs. */
    void armFor(os::Process &proc);


    SspParams _params;
    os::Kernel &kernel;
    SspCache sspCache;

    /** Interval commits; running() doubles as "attached". */
    sim::PeriodicEvent intervalTimer;
    sim::PeriodicEvent consolidateTimer;
    bool armed = false;
    Pid armedPid = 0;
    std::uint64_t commitSeq = 0;

    statistics::StatGroup statGroup;
    statistics::Scalar &shadowAllocs;
    statistics::Scalar &intervalCommits;
    statistics::Scalar &linesFlushed;
    statistics::Scalar &bitmapSpills;
    statistics::Scalar &consolidations;
    statistics::Scalar &pagesConsolidated;
    statistics::Scalar &consolidateTicks;
    statistics::Scalar &commitTicks;
    statistics::Scalar &metadataInspections;
    /** Registered lazily: only exists once an alloc actually fails. */
    statistics::Scalar *shadowAllocFailures = nullptr;
};

} // namespace kindle::ssp

#endif // KINDLE_SSP_SSP_ENGINE_HH
