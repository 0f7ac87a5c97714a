/**
 * @file
 * An NVM-resident redo log for OS metadata mutations.
 *
 * Every record occupies one cache line and is appended durably
 * (store + clwb + fence).  Records are stamped with the log's current
 * epoch and a sequence number, so a crash-time reader can recover the
 * valid tail without a separately-persisted count: it scans records
 * while (epoch, seq) match the expected progression.  reset() bumps the
 * epoch in the durable header, logically truncating the log in a
 * single line write — this is what the checkpoint does after applying
 * all records to the working copy.
 */

#ifndef KINDLE_PERSIST_REDO_LOG_HH
#define KINDLE_PERSIST_REDO_LOG_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "os/kernel_mem.hh"

namespace kindle::persist
{

/** Types of metadata mutations captured in the log. */
enum class RedoType : std::uint32_t
{
    invalid = 0,
    processCreated,
    processExit,
    vmaAdded,
    vmaRemoved,
    cpuState,
    faseMark,
    frameRetired,  ///< bad NVM frame retired; payload: bad, new, vaddr
};

/** One 64-byte log record. */
struct RedoRecord
{
    std::uint32_t magic = 0;      ///< validity marker
    RedoType type = RedoType::invalid;
    std::uint32_t pid = 0;
    std::uint32_t epoch = 0;
    std::uint64_t seq = 0;
    std::uint64_t a = 0;          ///< payload (type specific)
    std::uint64_t b = 0;
    std::uint64_t c = 0;
    std::uint64_t d = 0;
    std::uint32_t checksum = 0;   ///< FNV-1a with this field zeroed
    std::uint32_t pad = 0;

    static constexpr std::uint32_t magicValue = 0x52444c47;  // "RDLG"
};

static_assert(sizeof(RedoRecord) == 64, "records must be line sized");

/**
 * Result of the crash-time log scan.  The scan never trusts a durable
 * byte: record headers are bounds-checked and checksummed, so a torn
 * append or a garbage tail classifies as a truncation instead of
 * feeding corrupt mutations into recovery (or walking into UB).
 */
struct RedoScan
{
    /** Records that validated, in append order. */
    std::vector<RedoRecord> records;
    /** Durable log header failed its magic/checksum validation. */
    bool headerCorrupt = false;
    /** Scan stopped at a corrupt record (vs a clean end-of-log). */
    bool truncatedTail = false;
    /** Record slots examined (including the one that stopped us). */
    std::uint64_t scanned = 0;
};

/** The log itself. */
class RedoLog
{
  public:
    /**
     * @param kmem     Kernel memory gateway.
     * @param base     NVM address of the log region.
     * @param capacity Region size in bytes (header + records).
     * @param name     Stats name.
     */
    RedoLog(os::KernelMem &kmem, Addr base, std::uint64_t capacity,
            std::string name);

    /** Durably append one record (epoch/seq/magic filled in). */
    void append(RedoRecord rec);

    /** Records appended since the last reset. */
    std::uint64_t pending() const { return seq; }

    /**
     * Fire @p fn once when an append fills the log to @p threshold
     * records (re-armed by reset()).  The checkpoint layer uses this
     * to truncate the log *before* it can wrap and destroy un-replayed
     * records.  @p threshold 0 disables.
     */
    void
    setHighWater(std::uint64_t threshold, std::function<void()> fn)
    {
        highWaterThreshold = threshold;
        highWaterCb = std::move(fn);
    }

    /** Records overwritten by in-epoch wraps (0 when never wrapped). */
    std::uint64_t
    wrapDestroyedRecords() const
    {
        return wrapDestroyedCount;
    }

    /**
     * Read back every record of the current epoch (charged as
     * uncached NVM reads — the checkpoint's "apply" scan).
     */
    void replay(const std::function<void(const RedoRecord &)> &fn);

    /** Truncate: bump the epoch durably. */
    void reset();

    /**
     * Read-only audit of a durable log region: the records that were
     * durable at crash time, plus a taxonomy of anything untrustworthy
     * met along the way.  No repair and no epoch adoption — recovery
     * classifies the surviving log without constructing a RedoLog
     * (whose constructor would quietly re-establish a corrupt header).
     */
    static RedoScan audit(os::KernelMem &kmem, Addr base,
                          std::uint64_t capacity);

    /** Capacity in records. */
    std::uint64_t capacityRecords() const { return maxRecords; }

    statistics::StatGroup &stats() { return statGroup; }

  private:
    Addr recordAddr(std::uint64_t index) const
    {
        return base + lineSize + index * sizeof(RedoRecord);
    }

    os::KernelMem &kmem;
    Addr base;
    std::uint64_t maxRecords;
    std::uint32_t epoch = 1;
    std::uint64_t seq = 0;

    std::uint64_t highWaterThreshold = 0;
    std::function<void()> highWaterCb;
    /** Set once the current epoch has wrapped: every append from here
     *  on lands on a record replay can no longer see. */
    bool wrapped = false;
    std::uint64_t wrapDestroyedCount = 0;

    statistics::StatGroup statGroup;
    statistics::Scalar &appends;
    statistics::Scalar &replays;
    statistics::Scalar &resets;
    statistics::Scalar &wraps;
    /** Un-replayed records destroyed by wraps; registered lazily on
     *  the first wrap so default runs export no extra stat. */
    statistics::Scalar *wrapDestroyed = nullptr;
};

} // namespace kindle::persist

#endif // KINDLE_PERSIST_REDO_LOG_HH
