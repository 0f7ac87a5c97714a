/**
 * @file
 * The NVM-consistency page-table write policy for the *persistent*
 * scheme.
 *
 * Hosting the page table in NVM means a crash can tear a multi-store
 * update, so every entry store is wrapped in the consistency mechanism
 * of [2]: append an undo record (old value) durably, perform the
 * store, clwb the entry's line, fence.  This per-modification cost is
 * the persistent scheme's overhead signature in Figures 4a/4b and
 * Tables III/IV.
 */

#ifndef KINDLE_PERSIST_PT_POLICY_HH
#define KINDLE_PERSIST_PT_POLICY_HH

#include "base/stats.hh"
#include "os/kernel_mem.hh"
#include "os/page_table.hh"

namespace kindle::persist
{

/** Undo record for one wrapped store. */
struct PtUndoRecord
{
    std::uint32_t magic = 0;
    std::uint32_t epoch = 0;
    std::uint64_t entryAddr = 0;
    std::uint64_t oldValue = 0;
    std::uint64_t newValue = 0;
    std::uint64_t seq = 0;
    std::uint32_t checksum = 0;  ///< FNV-1a with this field zeroed
    std::uint8_t tail[20] = {};

    static constexpr std::uint32_t magicValue = 0x5054554e;  // "PTUN"
};

static_assert(sizeof(PtUndoRecord) == 64);

/** Consistency-wrapped page-table entry stores. */
class ConsistentPtWrite : public os::PtWritePolicy
{
  public:
    /**
     * @param kmem      Kernel memory gateway.
     * @param log_base  NVM region for the undo-record ring.
     * @param log_bytes Ring capacity in bytes.
     */
    ConsistentPtWrite(os::KernelMem &kmem, Addr log_base,
                      std::uint64_t log_bytes);

    void writeEntry(Addr entry_addr, std::uint64_t value) override;

    /**
     * Wholesale retirement: bump the epoch (one durable line write).
     * Records of earlier epochs are ignored by recovery.  Called by
     * the periodic checkpoint.
     */
    void retireAll();

    std::uint64_t wrappedStores() const
    {
        return static_cast<std::uint64_t>(stores.value());
    }

    statistics::StatGroup &stats() { return statGroup; }

  private:
    void persistEpoch();

    os::KernelMem &kmem;
    Addr logBase;
    std::uint64_t logRecords;
    std::uint64_t nextSeq = 0;
    std::uint32_t epoch = 1;

    statistics::StatGroup statGroup;
    statistics::Scalar &stores;
};

/** What the undo-log recovery pass did. */
struct PtUndoReport
{
    std::uint64_t recordsExamined = 0;
    std::uint64_t tornStoresRolledBack = 0;
};

/**
 * Recovery-side scan of the PT undo log.
 *
 * The wrapped-store protocol fences the undo record before the PTE
 * store, so at crash time each live (current-epoch) record's target
 * entry durably holds either its old value (store never reached the
 * device), its new value (store completed), or — if the crash cut a
 * writeback mid-line — something else.  Torn entries are rolled back
 * to the recorded old value, restoring a consistent page table before
 * it is adopted.  @p nvm is the NVM range the OS placed (a record
 * whose entry lies outside it is never dereferenced).
 */
PtUndoReport recoverPtUndoLog(os::KernelMem &kmem, const AddrRange &nvm,
                              Addr log_base, std::uint64_t log_bytes);

} // namespace kindle::persist

#endif // KINDLE_PERSIST_PT_POLICY_HH
