#include "persist/pt_policy.hh"

#include <map>
#include <vector>

#include "base/checksum.hh"
#include "base/logging.hh"
#include "base/str.hh"
#include "fault/fault.hh"
#include "trace/trace.hh"

namespace kindle::persist
{

namespace
{

/** Durable header in the first line of the undo region. */
struct UndoHeader
{
    std::uint32_t magic;
    std::uint32_t epoch;

    static constexpr std::uint32_t magicValue = 0x50544844;  // "PTHD"
};

} // namespace

ConsistentPtWrite::ConsistentPtWrite(os::KernelMem &kmem_arg,
                                     Addr log_base,
                                     std::uint64_t log_bytes)
    : kmem(kmem_arg),
      logBase(log_base),
      logRecords((log_bytes - lineSize) / sizeof(PtUndoRecord)),
      statGroup("ptConsistency",
                "page-table consistency scheme"),
      stores(statGroup.addScalar("wrappedStores",
                                 "consistency-wrapped PTE stores"))
{
    kindle_assert(logRecords > 0, "PT undo log region too small");
    // Adopt a surviving epoch or establish the header.
    UndoHeader hdr{};
    kmem.mem().readNvmDurable(logBase, &hdr, sizeof(hdr));
    if (hdr.magic == UndoHeader::magicValue) {
        epoch = hdr.epoch;
    } else {
        persistEpoch();
    }
}

void
ConsistentPtWrite::persistEpoch()
{
    const UndoHeader hdr{UndoHeader::magicValue, epoch};
    kmem.writeBufDurable(logBase, &hdr, sizeof(hdr));
}

void
ConsistentPtWrite::retireAll()
{
    ++epoch;
    nextSeq = 0;
    persistEpoch();
}

void
ConsistentPtWrite::writeEntry(Addr entry_addr, std::uint64_t value)
{
    KINDLE_TRACE_SPAN_ARGS(pt, "pt.wrappedStore", "entry={}",
                           entry_addr);
    ++stores;

    // 1. Read the current value (cached; tables are hot).
    const std::uint64_t old_value = kmem.read64(entry_addr);

    // 2. Durable undo record.  The ring is sized far beyond any
    //    checkpoint interval's store count, so in-epoch wrap-around
    //    only recycles long-retired slots.
    PtUndoRecord rec;
    rec.magic = PtUndoRecord::magicValue;
    rec.epoch = epoch;
    rec.entryAddr = entry_addr;
    rec.oldValue = old_value;
    rec.newValue = value;
    rec.seq = nextSeq;
    rec.checksum = selfChecksum32(rec);
    const Addr rec_addr =
        logBase + lineSize +
        (nextSeq % logRecords) * sizeof(PtUndoRecord);
    ++nextSeq;
    kmem.writeBufDurable(rec_addr, &rec, sizeof(rec));
    KINDLE_CRASH_SITE("pt.after_undo_append");

    // 3. The store itself, written back and fenced.  A crash between
    //    the clwb and the fence can lose — or tear — the store in the
    //    controller's write buffer; that is exactly the window the
    //    undo log exists for.
    kmem.write64(entry_addr, value);
    KINDLE_CRASH_SITE("pt.after_store");
    kmem.clwb(entry_addr);
    KINDLE_CRASH_SITE("pt.after_clwb");
    kmem.sfence();

    // Records are retired wholesale: the periodic checkpoint bumps
    // the log epoch (one durable header write), invalidating every
    // record at once — per-store retirement writes are unnecessary.
}

PtUndoReport
recoverPtUndoLog(os::KernelMem &kmem, const AddrRange &nvm,
                 Addr log_base, std::uint64_t log_bytes)
{
    PtUndoReport report;

    UndoHeader hdr{};
    kmem.readDurableBuf(log_base, &hdr, sizeof(hdr));
    if (hdr.magic != UndoHeader::magicValue)
        return report;  // log never initialized: nothing to do

    const std::uint64_t records =
        (log_bytes - lineSize) / sizeof(PtUndoRecord);

    // Collect live records, keeping only the newest per entry (an
    // entry rewritten within the epoch is governed by its latest
    // wrapped store).
    std::map<Addr, PtUndoRecord> newest;
    for (std::uint64_t i = 0; i < records; ++i) {
        PtUndoRecord rec{};
        kmem.mem().readNvmDurable(log_base + lineSize +
                                      i * sizeof(PtUndoRecord),
                                  &rec, sizeof(rec));
        if (rec.magic != PtUndoRecord::magicValue ||
            rec.epoch != hdr.epoch) {
            continue;
        }
        // A record can itself be torn (the crash can land mid-append):
        // never trust its payload without the checksum, and never
        // dereference an entry address outside the NVM page tables.
        if (rec.checksum != selfChecksum32(rec) ||
            !nvm.contains(rec.entryAddr) ||
            rec.entryAddr % sizeof(std::uint64_t) != 0) {
            continue;
        }
        ++report.recordsExamined;
        // Charge the scan as a bulk read once at the end; individual
        // records are examined functionally.
        auto [it, inserted] = newest.try_emplace(rec.entryAddr, rec);
        if (!inserted && rec.seq > it->second.seq)
            it->second = rec;
    }
    // Timing: one streaming read over the populated prefix.
    if (report.recordsExamined > 0) {
        kmem.simulation().bump(kmem.mem().submit(
            {mem::MemCmd::bulkRead, log_base,
             (report.recordsExamined + 1) * sizeof(PtUndoRecord)},
            kmem.simulation().now()));
    }

    for (const auto &[entry_addr, rec] : newest) {
        const auto durable =
            [&] {
                std::uint64_t v = 0;
                kmem.mem().readNvmDurable(entry_addr, &v, sizeof(v));
                return v;
            }();
        if (durable == rec.newValue || durable == rec.oldValue)
            continue;  // store completed, or never reached the device
        // Torn entry: restore the pre-store image.
        kmem.writeBufDurable(entry_addr, &rec.oldValue,
                             sizeof(rec.oldValue));
        ++report.tornStoresRolledBack;
    }
    return report;
}

} // namespace kindle::persist
