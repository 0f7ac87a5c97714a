#include "persist/redo_log.hh"

#include "base/checksum.hh"
#include "base/logging.hh"
#include "base/str.hh"
#include "fault/fault.hh"
#include "trace/profiler.hh"
#include "trace/trace.hh"

namespace kindle::persist
{

namespace
{

/** Durable header occupying the first line of the region. */
struct LogHeader
{
    std::uint32_t magic;
    std::uint32_t epoch;
    std::uint32_t checksum;
    std::uint32_t pad;

    static constexpr std::uint32_t magicValue = 0x4c474844;  // "LGHD"
};

} // namespace

RedoLog::RedoLog(os::KernelMem &kmem_arg, Addr base_arg,
                 std::uint64_t capacity, std::string name)
    : kmem(kmem_arg),
      base(base_arg),
      maxRecords((capacity - lineSize) / sizeof(RedoRecord)),
      statGroup(std::move(name), "redo log in NVM"),
      appends(statGroup.addScalar("appends", "records appended")),
      replays(statGroup.addScalar("replays", "records replayed")),
      resets(statGroup.addScalar("resets", "epoch bumps")),
      wraps(statGroup.addScalar("wraps", "in-epoch wraparounds"))
{
    kindle_assert(maxRecords > 0, "redo log region too small");
    // Establish the durable header (idempotent if already present).
    LogHeader hdr{};
    kmem.mem().readNvmDurable(base, &hdr, sizeof(hdr));
    if (hdr.magic == LogHeader::magicValue &&
        hdr.checksum == selfChecksum32(hdr)) {
        epoch = hdr.epoch;
    } else {
        hdr = LogHeader{};
        hdr.magic = LogHeader::magicValue;
        hdr.epoch = epoch;
        hdr.checksum = selfChecksum32(hdr);
        kmem.writeBufDurable(base, &hdr, sizeof(hdr));
    }
}

void
RedoLog::append(RedoRecord rec)
{
    KINDLE_PROF_SCOPE(redo);
    if (seq >= maxRecords) {
        // The region is sized so this only happens under extreme
        // checkpoint intervals; fold the tail forward.  The consistent
        // copy is still intact, but every record overwritten between
        // here and the next reset() is gone as far as replay is
        // concerned — count each one and leave a flight-recorder
        // breadcrumb instead of losing them silently.
        KINDLE_CRASH_SITE("redo.pre_wrap");
        ++wraps;
        wrapped = true;
        KINDLE_TRACE_INSTANT_ARGS(redo, "redo.wrap",
                                  "capacity={} destroyedSoFar={}",
                                  maxRecords, wrapDestroyedCount);
        seq = 0;
    }
    if (wrapped) {
        ++wrapDestroyedCount;
        ++statGroup.lazyScalar(
            wrapDestroyed, "wrapDestroyed",
            "un-replayed records destroyed by in-epoch wraps");
    }
    rec.magic = RedoRecord::magicValue;
    rec.epoch = epoch;
    rec.seq = seq;
    rec.checksum = 0;
    rec.checksum = selfChecksum32(rec);
    kmem.writeBufDurable(recordAddr(seq), &rec, sizeof(rec),
                         fault::siteId("redo.append_pre_fence"));
    KINDLE_TRACE_INSTANT_ARGS(redo, "redo.append",
                              "type={} seq={}",
                              static_cast<std::uint32_t>(rec.type),
                              seq);
    ++seq;
    ++appends;
    KINDLE_CRASH_SITE("redo.after_append");
    if (highWaterThreshold != 0 && seq == highWaterThreshold &&
        highWaterCb) {
        // Fires once per climb past the threshold; reset() re-arms by
        // pulling seq back to zero.
        highWaterCb();
    }
}

void
RedoLog::replay(const std::function<void(const RedoRecord &)> &fn)
{
    KINDLE_PROF_SCOPE(redo);
    for (std::uint64_t i = 0; i < seq; ++i) {
        RedoRecord rec{};
        // Non-temporal scan: the log is read once and not reused, so
        // it bypasses the caches.
        kmem.chargeUncachedRead(recordAddr(i));
        kmem.mem().readData(recordAddr(i), &rec, sizeof(rec));
        ++replays;
        fn(rec);
    }
}

void
RedoLog::reset()
{
    if (highWaterThreshold != 0) {
        // Only instrumented under backpressure: a default-config run
        // resets on every checkpoint and an unconditional probe here
        // would perturb its fault.siteHits accounting.
        KINDLE_CRASH_SITE("redo.pre_truncate");
    }
    ++epoch;
    seq = 0;
    wrapped = false;
    ++resets;
    LogHeader hdr{LogHeader::magicValue, epoch, 0, 0};
    hdr.checksum = selfChecksum32(hdr);
    kmem.writeBufDurable(base, &hdr, sizeof(hdr));
}

RedoScan
RedoLog::audit(os::KernelMem &kmem, Addr base, std::uint64_t capacity)
{
    RedoScan scan;
    const std::uint64_t max_records =
        (capacity - lineSize) / sizeof(RedoRecord);

    LogHeader hdr{};
    kmem.mem().readNvmDurable(base, &hdr, sizeof(hdr));
    if (hdr.magic != LogHeader::magicValue ||
        hdr.checksum != selfChecksum32(hdr)) {
        // Without a trustworthy epoch the whole log is unreadable;
        // recovery falls back to the last consistent checkpoint.
        scan.headerCorrupt = true;
        return scan;
    }
    for (std::uint64_t i = 0; i < max_records; ++i) {
        RedoRecord rec{};
        kmem.mem().readNvmDurable(base + lineSize +
                                      i * sizeof(RedoRecord),
                                  &rec, sizeof(rec));
        ++scan.scanned;
        if (rec.magic != RedoRecord::magicValue) {
            // Zeroed (never written) or stale lines end the scan
            // cleanly; any other bit pattern is a corrupt tail.
            scan.truncatedTail = rec.magic != 0;
            break;
        }
        if (rec.epoch != hdr.epoch) {
            // A record from an earlier epoch: clean logical end.
            break;
        }
        if (rec.seq != i || rec.checksum != selfChecksum32(rec)) {
            // In-epoch record that fails its own validation: a torn
            // append or scribbled line.  Stop before it.
            scan.truncatedTail = true;
            break;
        }
        scan.records.push_back(rec);
    }
    return scan;
}

} // namespace kindle::persist
