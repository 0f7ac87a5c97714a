/**
 * @file
 * The in-order CPU core.
 *
 * Models the paper's configuration: an Intel-style in-order core at
 * 3 GHz with a two-level TLB and a hardware page walker.  The core
 * executes memory operations by translating through the TLB (walking
 * on a miss, faulting to the OS on a hole) and accessing the cache
 * hierarchy; it advances the global simulation clock and services due
 * events between operations.
 */

#ifndef KINDLE_CPU_CORE_HH
#define KINDLE_CPU_CORE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "cache/hierarchy.hh"
#include "cpu/msr.hh"
#include "cpu/page_walker.hh"
#include "cpu/tlb.hh"
#include "mem/hybrid_memory.hh"
#include "sim/clocked.hh"
#include "sim/simulation.hh"

namespace kindle::cpu
{

/** Architected register state; this is what a checkpoint captures. */
struct CpuState
{
    std::array<std::uint64_t, 16> gpr{};
    std::uint64_t rip = 0;
    std::uint64_t rsp = 0;
    std::uint64_t rflags = 0x2;

    bool
    operator==(const CpuState &o) const
    {
        return gpr == o.gpr && rip == o.rip && rsp == o.rsp &&
               rflags == o.rflags;
    }
};

class Core;

/** The OS's page-fault entry point, installed into each core. */
class FaultHandler
{
  public:
    virtual ~FaultHandler() = default;

    /**
     * Resolve a fault taken by @p core at @p vaddr (write access iff
     * @p is_write).  On an SMP machine the faulting core identifies
     * the runqueue / process the fault belongs to.
     * @return true if the mapping now exists and the access should be
     *         retried; false for an illegal access (process killed).
     */
    virtual bool handlePageFault(Core &core, Addr vaddr,
                                 bool is_write) = 0;
};

/**
 * Observation/extension points used by the SSP and HSCC prototypes;
 * default implementations are no-ops so the base system runs without
 * either scheme.
 */
class CoreHooks
{
  public:
    virtual ~CoreHooks() = default;

    /** A walk completed; the entry may be rewritten before install. */
    virtual void onTlbFill(TlbEntry &entry, const Pte &leaf)
    {
        (void)entry;
        (void)leaf;
    }

    /** A data write is about to execute against @p entry. */
    virtual void onDataWrite(TlbEntry &entry, Addr vaddr,
                             std::uint64_t size)
    {
        (void)entry;
        (void)vaddr;
        (void)size;
    }

    /** The access at @p vaddr missed in the LLC. */
    virtual void onLlcMiss(TlbEntry &entry, Addr vaddr, bool is_write)
    {
        (void)entry;
        (void)vaddr;
        (void)is_write;
    }

    /** A valid TLB entry is being replaced or flushed (still fully
     *  populated, so per-entry metadata can be spilled). */
    virtual void onTlbEvict(const TlbEntry &entry) { (void)entry; }
};

/** Core configuration. */
struct CoreParams
{
    std::uint64_t freqMHz = 3000;  ///< paper: 3 GHz in-order
    Cycles cyclesPerOp = 1;        ///< base pipeline cost per op
    TlbParams tlb{};
};

/** The core. */
class Core
{
  public:
    /**
     * Construct core number @p cpu_id.  @p stat_name is the stat-group
     * name: the default "core" keeps single-core stat trees identical
     * to the pre-SMP layout; KindleSystem names cores "cpu0".."cpuN"
     * when more than one exists.
     */
    Core(const CoreParams &params, sim::Simulation &sim,
         mem::HybridMemory &memory, cache::Hierarchy &caches,
         CpuId cpu_id = 0, const std::string &stat_name = "core");

    /** This core's index in the machine. */
    CpuId cpuId() const { return id; }

    /** @name Context (set by the OS on context switch). */
    /// @{
    void
    setContext(Pid pid, Addr ptbr)
    {
        curPid = pid;
        curPtbr = ptbr;
    }
    Pid pid() const { return curPid; }
    Addr ptbr() const { return curPtbr; }

    CpuState &state() { return cpuState; }
    const CpuState &state() const { return cpuState; }
    void setState(const CpuState &s) { cpuState = s; }
    /// @}

    void setFaultHandler(FaultHandler *handler) { faultHandler = handler; }

    /** Attach prototype hooks (SSP/HSCC engines); order preserved. */
    void addHooks(CoreHooks *hooks_arg);
    void removeHooks(CoreHooks *hooks_arg);

    /**
     * Execute one load/store of @p size bytes at virtual @p vaddr.
     * Advances simulated time and services due events first.
     * @return false if the access was illegal (fault unresolved).
     */
    bool memAccess(bool is_write, Addr vaddr, std::uint64_t size);

    /** Execute @p cycles of pure compute. */
    void compute(Cycles cycles);

    /**
     * Translate without executing a data access, through the TLB and
     * page walk a data access takes (the tests read a user page's
     * physical address with it).  May fault to the OS like a normal
     * access.
     * @return physical address or invalidAddr on unresolved fault.
     */
    Addr translate(Addr vaddr, bool is_write);

    Tlb &tlb() { return dtlb; }
    MsrFile &msrs() { return msrFile; }
    PageWalker &walker() { return ptWalker; }
    const sim::ClockDomain &clock() const { return clockDomain; }

    /** Power loss: volatile core state vanishes. */
    void reset();

    statistics::StatGroup &stats() { return statGroup; }

  private:
    /** Look up (or walk+fill) the translation for one page. */
    TlbEntry *translateToEntry(Addr vaddr, bool is_write,
                               Tick &latency);

    CoreParams _params;
    CpuId id;
    sim::Simulation &sim;
    mem::HybridMemory &memory;
    cache::Hierarchy &caches;
    sim::ClockDomain clockDomain;

    Tlb dtlb;
    PageWalker ptWalker;
    MsrFile msrFile;

    Pid curPid = 0;
    Addr curPtbr = invalidAddr;
    CpuState cpuState;

    FaultHandler *faultHandler = nullptr;
    std::vector<CoreHooks *> hooks;

    statistics::StatGroup statGroup;
    statistics::Scalar &memOps;
    statistics::Scalar &computeOps;
    statistics::Scalar &pageFaults;
    statistics::Scalar &illegalAccesses;
    /** Page-walk latency per TLB miss (log-bucketed ticks). */
    statistics::Histogram &walkLatency;
};

} // namespace kindle::cpu

#endif // KINDLE_CPU_CORE_HH
