/**
 * @file
 * The Kindle gemOS kernel.
 *
 * A deliberately small OS in the spirit of gemOS: processes, VMAs with
 * the MAP_NVM extension, demand paging from per-technology frame
 * allocators, an SMP round-robin scheduler with per-core runqueues,
 * and the syscall surface the paper's experiments exercise
 * (mmap/munmap/mremap/mprotect plus the SSP FASE markers).  Being
 * small is the point — OS work is visible in the statistics instead
 * of being buried under background services.
 *
 * SMP model: each scheduling epoch, every core is rewound to the
 * epoch's start tick, runs one timeslice of its runqueue, and the
 * global clock then jumps to the latest per-core finish time.  With a
 * single core all rewinds are no-ops and execution is identical to
 * the original uniprocessor kernel.  Page-table updates that shrink
 * translations (munmap, mprotect, frame retirement, HSCC remaps)
 * shoot down remote TLBs with IPIs routed through the event queue.
 */

#ifndef KINDLE_OS_KERNEL_HH
#define KINDLE_OS_KERNEL_HH

#include <deque>
#include <memory>
#include <vector>

#include "base/random.hh"
#include "base/stats.hh"
#include "cpu/core.hh"
#include "fault/fault.hh"
#include "mem/hybrid_memory.hh"
#include "os/frame_alloc.hh"
#include "os/kernel_mem.hh"
#include "os/nvm_layout.hh"
#include "os/os_events.hh"
#include "os/page_table.hh"
#include "os/process.hh"

namespace kindle::os
{

class BadFrameTable;
class ReclaimEngine;

/** Kernel configuration. */
struct KernelParams
{
    Tick timeslice = oneMs;           ///< scheduler quantum
    Tick contextSwitchCost = 2 * oneUs;
    Tick syscallEntryCost = 150 * oneNs;
    Tick pageFaultTrapCost = 800 * oneNs;
    Tick ipiLatency = 500 * oneNs;    ///< TLB-shootdown IPI delivery
    Tick ipiHandlerCost = 200 * oneNs; ///< remote shootdown handler
    /** How long a shootdown initiator waits for a target's ack before
     *  resending the IPI (only consulted once a core fault is armed —
     *  a healthy machine never times out). */
    Tick ipiAckTimeout = 2 * oneUs;
    /** Resends before the watchdog declares the target core dead. */
    unsigned ipiRetries = 3;
    bool ptInNvm = false;  ///< host page tables in NVM (persistent
                           ///  scheme) instead of DRAM (rebuild)
    /** DRAM reserved below this for the kernel image. */
    std::uint64_t kernelReserveBytes = 16 * oneMiB;

    /**
     * NVM metadata-carving sizes (process-slot capacity, redo-log and
     * per-process mapping-list reservations).  The defaults reproduce
     * the historical 16-slot layout byte for byte; fleet workloads
     * raise procSlots into the thousands.
     */
    NvmLayoutParams nvmLayout{};

    /**
     * Keep this many NVM frames in reserve for retirement migrations;
     * MAP_NVM demand faults degrade to DRAM once the free pool dips
     * to the reserve (rather than failing outright).
     */
    std::uint64_t nvmReserveFrames = 8;

    /**
     * Memory-pressure configuration (zone shrink, injected transient
     * allocation failures, watermark reclaim, OOM).  Disabled by
     * default: an unpressured kernel registers no pressure stats and
     * behaves identically to the pre-pressure tree until a zone
     * genuinely runs dry — at which point allocation now fails
     * gracefully (ENOMEM) instead of aborting the simulation.
     */
    fault::PressurePlan pressure{};

    /**
     * Seeded CPU-core faults (fail-stop / transient stall).  Disabled
     * by default: with an empty plan the kernel evaluates no triggers,
     * registers no core-fault stats, and takes no extra event-queue
     * bumps, so runs stay byte-identical to a fault-free tree.
     */
    fault::CoreFaultPlan coreFaults{};
};

/** The kernel. */
class Kernel : public cpu::FaultHandler
{
  public:
    /** Allocation retries under a pressure plan before escalating to
     *  reclaim/OOM. */
    static constexpr unsigned allocMaxRetries = 4;
    /** Simulated backoff charged per allocation retry. */
    static constexpr Tick allocRetryBackoff = 10 * oneUs;

    /** SMP construction over every core of the machine. */
    Kernel(const KernelParams &params, sim::Simulation &sim,
           mem::HybridMemory &memory, cache::Hierarchy &caches,
           std::vector<cpu::Core *> cores);

    ~Kernel() override;

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /** @name Process management. */
    /// @{
    /** Create a process running @p program; returns its pid. */
    Pid spawn(std::unique_ptr<cpu::OpStream> program,
              std::string name);

    /**
     * Create an empty process shell (used by crash recovery); the
     * caller populates the address space and context.  Recovery under
     * the persistent scheme adopts an NVM-resident page table instead
     * of building one, hence @p create_pt.
     */
    Process &spawnShell(std::string name, unsigned slot,
                        bool create_pt = true);

    /**
     * The PCB of @p pid, or null once it is reaped.  An exited process
     * stays a zombie until the next scheduling-epoch boundary, where
     * the kernel erases it; code that outlives a run observes an exit
     * as findProcess() returning null.
     */
    Process *findProcess(Pid pid);
    const std::vector<std::unique_ptr<Process>> &processes() const
    {
        return procs;
    }

    /** The process on the core the kernel is currently executing on. */
    Process *currentProcess() { return cpus[activeCpu_].running; }

    /** The process resident on core @p cpu (null when idle). */
    Process *runningOn(CpuId cpu) { return cpus.at(cpu).running; }

    /**
     * The architected register state of @p proc as a checkpoint must
     * capture it: the live core state while the process is running on
     * some core, its saved context otherwise.
     */
    const cpu::CpuState &contextOf(const Process &proc) const;

    /**
     * Pin @p proc to core @p cpu (-1 clears the pin).  A process
     * queued on another core migrates lazily at its next pick.
     * @return false (and leaves the pin unchanged) when @p cpu has
     *         been offlined — a dead core can never run anything.
     */
    bool setAffinity(Process &proc, int cpu);

    /** Whether core @p cpu is still part of the scheduling set. */
    bool coreOnline(CpuId cpu) const { return cpus.at(cpu).online; }
    /// @}

    /** @name Execution. */
    /// @{
    /** Run until every process has exited. */
    void run();

    /** Run until @p deadline or until everything exits. */
    void runUntil(Tick deadline);
    /// @}

    /** @name Syscalls (invoked by op dispatch or examples/tests). */
    /// @{
    Addr sysMmap(Process &proc, Addr hint, std::uint64_t length,
                 std::uint32_t flags);
    void sysMunmap(Process &proc, Addr addr, std::uint64_t length);
    Addr sysMremap(Process &proc, Addr old_addr,
                   std::uint64_t old_length, std::uint64_t new_length);
    void sysMprotect(Process &proc, Addr addr, std::uint64_t length,
                     std::uint32_t prot);
    /// @}

    /** cpu::FaultHandler: demand paging. */
    bool handlePageFault(cpu::Core &core, Addr vaddr,
                         bool is_write) override;

    /**
     * Durably retire the NVM frame containing @p frame (reported by
     * the scrubber as uncorrectable or endurance-exhausted) and
     * migrate any live page mapped on it to a fresh frame — NVM when
     * the pool has one, DRAM otherwise.  Idempotent: re-retiring an
     * already-retired frame is a no-op, so a crash between the durable
     * bit and the migration replays cleanly.
     */
    void retireNvmFrame(Addr frame, const char *reason);

    /** The persistent bad-frame registry. */
    BadFrameTable &badFrameTable() { return *badFrames_; }
    const BadFrameTable &badFrameTable() const { return *badFrames_; }

    /**
     * Demote one DRAM-backed page of @p proc to an NVM frame (the
     * reclaim engine's work unit): copy, remap under the active PT
     * policy, shoot down stale translations, free the DRAM frame.
     * @return false when the page is not demotable (absent, already
     *         NVM, HSCC-remapped) or no NVM frame is available above
     *         the retirement reserve.
     */
    bool demotePage(Process &proc, Addr vaddr);

    /** The reclaim engine (null unless a pressure plan is armed). */
    ReclaimEngine *reclaimEngine() { return reclaim_.get(); }

    /**
     * Deterministic last-resort OOM kill: the non-pinned, non-shell
     * victim with the largest RSS (ties to the lowest pid), excluding
     * @p requester.  @return the victim, or null when no process is
     * eligible.
     */
    Process *oomKill(Process *requester);

    /** @name TLB shootdown (also used by the HSCC/SSP engines). */
    /// @{
    /**
     * Drop the translation of one page from every core's TLB: the
     * active core invalidates directly, remote cores via IPI.  Used
     * for frame retirement and HSCC remaps, where the PTE changes
     * under a possibly-running process.
     */
    void shootdownPage(Pid pid, Addr vaddr);

    /**
     * Flush every core's whole TLB (SSP FASE entry: tracked pages
     * must refill with the SSP extension fields populated).  Charges
     * the local 2 us flush cost like the uniprocessor kernel did.
     */
    void shootdownFlushAll();
    /// @}

    /** @name Persistence / prototype integration. */
    /// @{
    void addListener(OsEventListener *listener);
    void removeListener(OsEventListener *listener);

    /** Swap the page-table store policy (persistence schemes). */
    void setPtWritePolicy(PtWritePolicy *policy);

    KernelMem &kmem() { return kernelMem; }
    const NvmLayout &nvmLayout() const { return layout; }
    PageTableManager &pageTables() { return *ptMgr; }
    FrameAllocator &dramAllocator() { return *dramAlloc; }
    FrameAllocator &nvmAllocator() { return *nvmAlloc; }

    /** Core @p cpu of the machine. */
    cpu::Core &core(CpuId cpu) { return *cores_.at(cpu); }
    unsigned numCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }

    /**
     * Processes ready or running across every online core's runqueue
     * right now (the telemetry sampler's runqueue-depth channel).
     */
    unsigned
    runnableCount() const
    {
        unsigned n = 0;
        for (const CpuSlot &slot : cpus) {
            if (!slot.online)
                continue;
            n += static_cast<unsigned>(slot.runq.size());
            if (slot.running)
                ++n;
        }
        return n;
    }

    /** Live (non-zombie) processes right now — the telemetry
     *  sampler's tenant-population channel, the fleet driver's
     *  respawn trigger and the checkpoint's clean-skip count.  O(1):
     *  exitProcess() is the only way into the zombie state and counts
     *  each process once; reapExited() erases exactly the counted. */
    unsigned
    liveProcessCount() const
    {
        return static_cast<unsigned>(procs.size()) - zombieCount;
    }

    /** User pages resident across all live processes right now. */
    std::uint64_t
    residentPagesTotal() const
    {
        std::uint64_t n = 0;
        for (const auto &proc : procs) {
            if (proc->state != ProcState::zombie)
                n += proc->residentPages;
        }
        return n;
    }

    sim::Simulation &simulation() { return sim; }
    const KernelParams &params() const { return _params; }

    /** Mark a process runnable again (after recovery re-binding). */
    void makeReady(Process &proc);

    /** Terminate a process, releasing its memory. */
    void exitProcess(Process &proc);
    /// @}

    statistics::StatGroup &stats() { return statGroup; }

  private:
    /** One batched TLB-shootdown request carried by an IPI. */
    struct ShootdownRequest
    {
        Pid pid;
        AddrRange range;
        bool flushAll;
    };

    /**
     * The kernel-owned per-core IPI doorbell.  Shootdown initiators
     * append requests and schedule the event through the global event
     * queue; delivery invalidates the target core's TLB and charges
     * the handler cost.  Owned by the kernel so a crash tearing the
     * kernel down mid-shootdown deschedules it (see ~Event).
     */
    class TlbIpiEvent : public sim::Event
    {
      public:
        TlbIpiEvent(Kernel &kernel, CpuId cpu);

        void process() override;

        std::vector<ShootdownRequest> pending;

      private:
        Kernel &kernel;
        CpuId cpu;
    };

    /** Per-core scheduler state. */
    struct CpuSlot
    {
        Process *running = nullptr;       ///< resident process
        std::deque<Process *> runq;       ///< ready queue
        std::unique_ptr<TlbIpiEvent> ipi; ///< shootdown doorbell
        /** Hotplug state: offlined cores leave the scheduling set,
         *  the shootdown broadcast set, and the steal donor set. */
        bool online = true;
        /** A fired fail-stop fault: the core never executes or acks
         *  again; the watchdog offlines it at the next opportunity. */
        bool failStopped = false;
        /** A fired transient stall: unresponsive until this tick. */
        Tick stalledUntil = 0;
        /** Shootdown IPI delivery attempts seen (fault triggers). */
        std::uint64_t ipisReceived = 0;
        /** Ack flag for the initiator's timeout/retry protocol. */
        bool ipiAcked = false;
    };

    Process *pickNext(CpuId cpu);
    Process *popRunnable(CpuId cpu);
    Process *stealWork(CpuId thief);
    void enqueue(Process &proc, CpuId cpu);
    CpuId placementFor(const Process &proc) const;
    void switchTo(CpuId cpu, Process *proc);
    void runSlice(CpuId cpu, Process &proc, Tick slice_end);
    bool dispatch(CpuId cpu, Process &proc, const cpu::Op &op);
    void invalidateTlbRange(Pid pid, AddrRange range);
    void shootdownRemote(Pid pid, AddrRange range, bool flush_all);
    void deliverTlbIpi(CpuId cpu);
    void unmapPages(Process &proc, const Vma &piece);

    /** @name CPU-fault machinery (no-ops unless a plan is armed). */
    /// @{
    /**
     * Evaluate the armed core faults against @p cpu at the current
     * tick / IPI count; fired faults are consumed.  @return true when
     * a fault fired here.
     */
    bool evalCoreFaults(CpuId cpu);

    /** Whether @p cpu would acknowledge an IPI right now. */
    bool coreResponsive(CpuId cpu) const;

    /** Epoch-boundary sweep: fire due tick faults, offline the dead. */
    void watchdogPass();

    /** Escalation endpoint: mark @p cpu dead and offline it. */
    void watchdogDeclareDead(CpuId cpu);

    /**
     * Hotplug-style offlining of a dead core: re-place its runqueue
     * (the occupant that held the core when it died is killed via the
     * crash-consistent exitProcess path; pinned processes lose their
     * affinity), flush/invalidate its private caches through the
     * coherence directory, and remove it from the shootdown broadcast
     * and work-stealing sets.  Fatal when it would take the last
     * online core down.
     */
    void offlineCore(CpuId cpu);
    /// @}

    /** Lowest free persistent process slot; fatal when all
     *  layout.procSlots are live.  O(slots/64) bitmap-word scan. */
    unsigned allocSlot();

    /** Mark slot @p slot used / free in the slot bitmap. */
    void markSlotUsed(unsigned slot);
    void markSlotFree(unsigned slot);

    /** Drop zombie PCBs (epoch-boundary only — no live Process
     *  reference may be held across this). */
    void reapExited();

    /**
     * Allocate one DRAM user frame with the pressure machinery in the
     * loop: injected transient failures, retry with backoff, direct
     * reclaim on exhaustion, OOM kill as the last resort.  Returns
     * invalidAddr (ENOMEM) instead of aborting when nothing helps.
     */
    Addr allocUserFrame(Process *proc);

    KernelParams _params;
    sim::Simulation &sim;
    mem::HybridMemory &memory;
    cache::Hierarchy &caches;
    std::vector<cpu::Core *> cores_;

    KernelMem kernelMem;
    NvmLayout layout;

    std::unique_ptr<FrameAllocator> dramAlloc;
    std::unique_ptr<FrameAllocator> nvmAlloc;
    std::unique_ptr<BadFrameTable> badFrames_;
    std::unique_ptr<ReclaimEngine> reclaim_;

    /** Seeded coin for injected transient allocation failures. */
    Random allocRng;

    std::unique_ptr<PageTableManager> ptMgr;

    /** Every unreaped PCB, in ascending pid order: spawnShell()
     *  appends nextPid++ and reaping erases in place, so findProcess()
     *  binary-searches it. */
    std::vector<std::unique_ptr<Process>> procs;
    std::vector<CpuSlot> cpus;
    CpuId activeCpu_ = 0;

    /** Armed-plan gate: false keeps every fault hook zero-cost. */
    bool coreFaultArmed_ = false;
    /** Faults not yet fired (entries are consumed as they fire). */
    std::vector<fault::CoreFault> pendingCoreFaults;
    Pid nextPid = 1;

    /** Saved-state slot occupancy, one bit per slot.  Word-granular
     *  so allocSlot() skips fully-used words: lowest-free-bit order
     *  (identical to the historical 32-bit mask) at O(slots/64). */
    std::vector<std::uint64_t> slotWords;
    /** Lowest word that may contain a free slot bit. */
    unsigned slotSearchHint = 0;

    /** Zombies in `procs`, awaiting the next epoch-boundary reap. */
    unsigned zombieCount = 0;

    std::vector<OsEventListener *> listeners;

    statistics::StatGroup statGroup;
    statistics::Scalar &syscalls;
    statistics::Scalar &contextSwitches;
    statistics::Scalar &faultsServiced;
    statistics::Scalar &opsExecuted;
    statistics::Scalar &nvmFramesRetired;
    statistics::Scalar &nvmPagesMigrated;
    statistics::Scalar &nvmDegradedAllocs;
    /** SMP-only stats; null on a single-core machine so the
     *  uniprocessor stat tree stays byte-identical. */
    statistics::Scalar *tlbShootdownsSent = nullptr;
    statistics::Scalar *tlbShootdownIpis = nullptr;
    statistics::Scalar *migrations = nullptr;
    /** Pressure stats; registered lazily on first use so default
     *  (unpressured, never-exhausted) runs export no extra stats. */
    statistics::Scalar *enomemFaults = nullptr;
    statistics::Scalar *allocRetries = nullptr;
    statistics::Scalar *allocFailuresInjected = nullptr;
    statistics::Scalar *oomKills = nullptr;
    statistics::Scalar *oomPagesFreed = nullptr;
    /** Core-fault stats; registered lazily on first use so fault-free
     *  runs export no extra stats (byte-identity guarantee). */
    statistics::Scalar *ipiRetriesStat = nullptr;
    statistics::Scalar *ipiTimeoutsStat = nullptr;
    statistics::Scalar *coresOfflined = nullptr;
    statistics::Scalar *affinityBroken = nullptr;
    statistics::Scalar *coreLossKills = nullptr;
};

} // namespace kindle::os

#endif // KINDLE_OS_KERNEL_HH
