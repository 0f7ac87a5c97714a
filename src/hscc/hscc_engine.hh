/**
 * @file
 * Hardware/Software Cooperative Caching (HSCC) prototype [23] on
 * Kindle.
 *
 * HSCC arranges DRAM and NVM in a flat address space and manages a
 * pool of DRAM pages as an OS-assisted cache over NVM.  Per-NVM-page
 * access counts live in PTE ignored bits and in the TLB (incremented
 * on LLC misses, written back on TLB eviction or once per interval).
 * Every migration interval (31.25 ms, the paper's 10^8-cycle figure)
 * the OS scans the counts with a software page-table walk, migrates
 * pages above the fetch threshold into DRAM (page selection + page
 * copy), resets all counts, and invalidates TLB entries.
 *
 * The engine can run with OS costs suppressed (`chargeOsTime=false`),
 * reproducing the paper's "hardware-only migration" baseline that
 * user-level simulators like ZSim implicitly measure — the comparison
 * behind Figure 6.
 */

#ifndef KINDLE_HSCC_HSCC_ENGINE_HH
#define KINDLE_HSCC_HSCC_ENGINE_HH

#include <vector>

#include "cpu/core.hh"
#include "hscc/dram_pool.hh"
#include "hscc/mapping_table.hh"
#include "os/kernel.hh"

namespace kindle::hscc
{

/** HSCC configuration. */
struct HsccParams
{
    unsigned dramPoolPages = 512;       ///< paper §III-C
    Tick migrationInterval = 31250 * oneUs;  ///< 31.25 ms
    unsigned fetchThreshold = 5;        ///< paper: 5 / 25 / 50
    bool chargeOsTime = true;           ///< false = hardware-only

    /**
     * Extension beyond the Kindle prototype (which fixes the
     * threshold to static values): adjust the fetch threshold each
     * interval from pool pressure, as the original HSCC proposes.
     * Candidates flooding past the pool double the threshold;
     * sustained underutilization halves it.
     */
    bool dynamicThreshold = false;
    unsigned minThreshold = 2;
    unsigned maxThreshold = 512;
};

/** The engine. */
class HsccEngine : public cpu::CoreHooks, public os::OsEventListener
{
  public:
    HsccEngine(const HsccParams &params, os::Kernel &kernel);
    ~HsccEngine() override;

    HsccEngine(const HsccEngine &) = delete;
    HsccEngine &operator=(const HsccEngine &) = delete;

    void start();
    void stop();

    /** Run one migration interval's OS activity immediately. */
    void migrate();

    /** @name cpu::CoreHooks. */
    /// @{
    void onLlcMiss(cpu::TlbEntry &entry, Addr vaddr,
                   bool is_write) override;
    void onDataWrite(cpu::TlbEntry &entry, Addr vaddr,
                     std::uint64_t size) override;
    void onTlbEvict(const cpu::TlbEntry &entry) override;
    /// @}

    /** @name os::OsEventListener. */
    /// @{
    bool resolveRemappedFrame(os::Process &proc, Addr vaddr,
                              Addr mapped_frame,
                              Addr *home_out) override;
    /// @}

    /** @name Result accessors (Tables V/VI, Figure 6). */
    /// @{
    std::uint64_t pagesMigrated() const
    {
        return static_cast<std::uint64_t>(migrated.value());
    }
    Tick selectionTicks() const
    {
        return static_cast<Tick>(selTicks.value());
    }
    Tick copyTicks() const
    {
        return static_cast<Tick>(cpTicks.value());
    }
    Tick migrationTicks() const
    {
        return static_cast<Tick>(migTicks.value());
    }
    /// @}

    DramPool &pool() { return dramPool; }
    MappingTable &mappingTable() { return mapTable; }

    /** The threshold in force (moves under dynamicThreshold). */
    unsigned currentThreshold() const { return curThreshold; }

    statistics::StatGroup &stats() { return statGroup; }

  private:
    /** One migration candidate found by the scan. */
    struct Candidate
    {
        os::Process *proc;
        Addr vaddr;
        Addr pteAddr;
        cpu::Pte pte;
    };

    /** PTE store respecting the chargeOsTime switch. */
    void ptePut(Addr pte_addr, cpu::Pte pte);
    /** PTE load respecting the chargeOsTime switch. */
    cpu::Pte pteGet(Addr pte_addr);
    /** Revert the PTE of a displaced cached page, mapped @p at, back
     *  to its home. */
    void revertMapping(Addr nvm_home, const PageMapping &at);

    HsccParams _params;
    os::Kernel &kernel;
    DramPool dramPool;
    MappingTable mapTable;

    /** The migration interval; running() doubles as "attached". */
    sim::PeriodicEvent migrateTimer;
    unsigned curThreshold = 0;

    statistics::StatGroup statGroup;
    statistics::Scalar &migrated;
    statistics::Scalar &intervals;
    statistics::Scalar &candidatesSeen;
    statistics::Scalar &reverts;
    statistics::Scalar &copyBacks;
    statistics::Scalar &selTicks;
    statistics::Scalar &cpTicks;
    statistics::Scalar &migTicks;
    statistics::Scalar &countWritebacks;
    statistics::Scalar &thresholdRaises;
    statistics::Scalar &thresholdDrops;
};

} // namespace kindle::hscc

#endif // KINDLE_HSCC_HSCC_ENGINE_HH
