/**
 * @file
 * The process-persistence domain: periodic checkpointing of execution
 * contexts into NVM.
 *
 * PersistDomain subscribes to kernel events (appending redo records
 * for OS metadata mutations), owns the per-process saved-state slots,
 * and runs the periodic checkpoint:
 *
 *   1. capture CPU state into the redo log,
 *   2. replay the log (the "apply changes to the working copy" scan),
 *   3. write the working context durably,
 *   4. rebuild scheme: traverse the page table and refresh the
 *      virtual→NVM-physical mapping list,
 *   5. durably flip the consistent-copy index, truncate the log.
 *
 * The checkpoint timer restarts when the checkpoint *completes*, so a
 * checkpoint longer than the interval cannot re-trigger itself — the
 * behaviour Table IV of the paper relies on.
 */

#ifndef KINDLE_PERSIST_CHECKPOINT_HH
#define KINDLE_PERSIST_CHECKPOINT_HH

#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "os/kernel.hh"
#include "persist/pt_policy.hh"
#include "persist/redo_log.hh"
#include "persist/saved_state.hh"

namespace kindle::persist
{

/** Persistence configuration. */
struct PersistParams
{
    PtScheme scheme = PtScheme::rebuild;
    Tick checkpointInterval = 10 * oneMs;  ///< paper default (Aurora)

    /**
     * Extension beyond the paper: maintain the rebuild scheme's
     * virtual→NVM-physical mapping list *incrementally* from mapping
     * events instead of re-traversing the page table every
     * checkpoint.  Removes the size-proportional checkpoint cost that
     * dominates Figure 4a / Table IV (see
     * bench/ablation_incremental_ckpt).
     */
    bool incrementalMappingList = false;

    /**
     * Skip the per-process slot sweep (and the CPU-state redo append)
     * for processes whose durable image cannot have changed since
     * their last committed checkpoint: serialized context
     * bit-identical and no NVM mapping mutations in the interval.  At
     * fleet scale (1k+ mostly-idle tenants time-shared on a few
     * cores) the unconditional sweep writes O(population) NVM lines
     * per checkpoint and saturates the media with flush traffic; with
     * the skip the sweep cost tracks the set of processes that
     * actually ran.  The sweep does not even visit the rest: a dirty
     * set lists every process a kernel hook touched (creation,
     * switch-in, VMA add/remove and the munmap/mprotect pre-change
     * hook, NVM map/unmap, FASE marks) plus every core's resident
     * occupant at the end of each checkpoint, since an occupant can
     * keep executing without another switch.  Soundness rule: a
     * process changes only while it executes, or after a hook that
     * lists it and before the next event-queue service point (where a
     * checkpoint can run).  So a process outside the set cannot have
     * changed, and a checkpoint costs O(dirty), not O(population).
     * Off by default so default-config output stays byte-identical.
     */
    bool skipCleanProcesses = false;
};

/** The domain. */
class PersistDomain : public os::OsEventListener
{
  public:
    PersistDomain(const PersistParams &params, os::Kernel &kernel);
    ~PersistDomain() override;

    PersistDomain(const PersistDomain &) = delete;
    PersistDomain &operator=(const PersistDomain &) = delete;

    /**
     * Attach to the kernel: adopt/initialize slots for existing
     * processes, install the PT write policy (persistent scheme),
     * register the listener and start the periodic timer.
     */
    void start();

    /** Detach and stop the timer. */
    void stop();

    /** Run one full checkpoint immediately. */
    void checkpointNow();

    /**
     * Redo-log backpressure: once appends fill the log to @p fraction
     * of its record capacity, the next periodic checkpoint is pulled
     * forward to "now" so the log truncates *before* it can wrap and
     * destroy un-replayed records; pressure checkpoints also compact
     * saved-state slots left behind by exited processes.  Off by
     * default (the stats and the redo.pre_truncate crash site only
     * exist once enabled, keeping default-run output byte-identical).
     */
    void enableBackpressure(double fraction);

    /**
     * Pull the next periodic checkpoint forward to "now" (no-op while
     * stopped or mid-checkpoint).  Called by the redo-log high-water
     * callback and by the reclaim engine under NVM pressure; the
     * checkpoint it provokes also compacts dead saved-state slots.
     */
    void requestEarlyCheckpoint();

    PtScheme scheme() const { return _params.scheme; }
    Tick interval() const { return _params.checkpointInterval; }
    RedoLog &redoLog() { return *metaLog; }

    std::uint64_t checkpointsTaken() const
    {
        return static_cast<std::uint64_t>(checkpoints.value());
    }

    /** Total simulated time spent inside checkpoints. */
    Tick
    checkpointTicks() const
    {
        return static_cast<Tick>(ckptTicks.sum());
    }

    /** @name OsEventListener. */
    /// @{
    void onProcessCreated(os::Process &proc) override;
    void onProcessExit(os::Process &proc) override;
    void onVmaAdded(os::Process &proc, const os::Vma &vma) override;
    void onVmaRemoved(os::Process &proc, const os::Vma &vma) override;
    void onVmaChanging(os::Process &proc) override;
    void onFrameMapped(os::Process &proc, Addr vaddr, Addr frame,
                       bool nvm) override;
    void onFrameUnmapped(os::Process &proc, Addr vaddr, Addr frame,
                         bool nvm) override;
    void onFrameRetired(os::Process *proc, Addr vaddr, Addr bad_frame,
                        Addr new_frame) override;
    void onFaseStart(os::Process &proc) override;
    void onFaseEnd(os::Process &proc) override;
    void onContextSwitch(os::Process *from, os::Process *to) override;
    /// @}

    statistics::StatGroup &stats() { return statGroup; }

  private:
    class CkptEvent : public sim::Event
    {
      public:
        explicit CkptEvent(PersistDomain &domain)
            : Event("checkpoint", Priority::ckpt), domain(domain)
        {}

        void
        process() override
        {
            domain.checkpointNow();
            domain.scheduleNext();
        }

      private:
        PersistDomain &domain;
    };

    /** Incremental-mode bookkeeping for one process slot. */
    struct IncState
    {
        bool built = false;
        /** Host mirror of the durable list (vpn/pfn per index). */
        std::vector<MappingEntry> list;
        /** vpn → list index. */
        std::unordered_map<std::uint64_t, std::uint64_t> posOf;
        /** Mapping mutations since the last checkpoint, in order. */
        std::vector<std::pair<bool, MappingEntry>> pending;

        /** Clean-skip bookkeeping (skipCleanProcesses): the context
         *  committed by this process's last sweep, and whether any NVM
         *  mapping changed since — tracked for every scheme, because
         *  reclaim can demote an idle process's pages without its
         *  context ever changing. */
        bool ctxValid = false;
        bool mapDirty = false;
        SavedContext lastCtx{};

        void
        reset()
        {
            built = false;
            list.clear();
            posOf.clear();
            pending.clear();
            ctxValid = false;
            mapDirty = false;
        }
    };

    /** One process visited by a checkpoint sweep. */
    struct SweepItem
    {
        os::Process *proc;
        SavedContext ctx;
        bool clean;
    };

    void scheduleNext();
    void armPressureStats();
    void compactSlots();
    /** List @p proc in the dirty set (skipCleanProcesses only). */
    void markDirty(const os::Process &proc);
    /** Snapshot @p proc into the sweep buffer and classify it. */
    void addSweepItem(os::Process &proc);
    SavedStateSlot &slotFor(const os::Process &proc);
    void checkpointProcess(os::Process &proc, const SavedContext &ctx);
    void updateMappingListFull(os::Process &proc,
                               SavedStateSlot &slot);
    void updateMappingListIncremental(os::Process &proc,
                                      SavedStateSlot &slot);

    PersistParams _params;
    os::Kernel &kernel;

    std::unique_ptr<RedoLog> metaLog;
    std::unique_ptr<ConsistentPtWrite> ptPolicy;  ///< persistent only
    /** Sized to the kernel layout's procSlots at construction, so a
     *  fleet-scale layout gets a fleet-scale slot table. */
    std::vector<std::optional<SavedStateSlot>> slots;
    std::vector<IncState> incState;

    /** Dirty set: pids that may have changed since their last sweep,
     *  each listed once.  Exited or reaped pids go stale in place and
     *  are dropped when the next checkpoint looks them up. */
    std::vector<Pid> dirtyPids;
    /** Per slot: the pid listed from it, 0 for none.  Keyed by pid,
     *  not by slot alone, so a slot reused by a new process is listed
     *  afresh even while its exited predecessor is still listed. */
    std::vector<Pid> listedPid;
    /** Per-checkpoint sweep buffer, reused to keep its capacity. */
    std::vector<SweepItem> sweep;

    CkptEvent event;
    bool started = false;
    bool backpressure = false;
    /** Re-entrancy guard: appends made *during* a checkpoint must not
     *  pull the timer forward (the checkpoint resets the log itself). */
    bool inCheckpoint = false;
    /** An early checkpoint was requested: compact slots when it runs
     *  (even if redo-log backpressure itself is not enabled). */
    bool compactNext = false;

    statistics::StatGroup statGroup;
    statistics::Scalar &checkpoints;
    statistics::Distribution &ckptTicks;
    statistics::Histogram &ckptDuration;
    statistics::Scalar &mappingEntries;
    statistics::Scalar &redoRecords;
    /** Backpressure stats; registered only by enableBackpressure(). */
    statistics::Scalar *earlyCheckpoints = nullptr;
    statistics::Scalar *slotsCompacted = nullptr;
    /** Registered only when skipCleanProcesses is configured. */
    statistics::Scalar *cleanSkips = nullptr;
};

} // namespace kindle::persist

#endif // KINDLE_PERSIST_CHECKPOINT_HH
