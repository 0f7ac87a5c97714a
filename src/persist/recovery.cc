#include "persist/recovery.hh"

#include <unordered_set>

#include "base/logging.hh"
#include "base/str.hh"
#include "cpu/pagetable_defs.hh"
#include "fault/fault.hh"
#include "os/bad_frames.hh"
#include "persist/pt_policy.hh"
#include "persist/redo_log.hh"
#include "trace/profiler.hh"
#include "trace/trace.hh"

namespace kindle::persist
{

namespace
{

/**
 * Collect all NVM frames reachable from a persistent page table.
 * Never trusts a durable pointer: a frame address outside the NVM
 * range (or already visited) counts as dangling instead of being
 * dereferenced.
 */
void
collectPtFrames(os::Kernel &kernel, Addr table, unsigned level,
                std::unordered_set<Addr> &live,
                std::uint64_t &dangling, std::uint64_t *leaves = nullptr)
{
    const AddrRange &nvm = kernel.nvmLayout().nvm;
    if (!nvm.contains(table) || !live.insert(table).second) {
        ++dangling;
        return;
    }
    os::PageTableManager::TableEntries entries;
    kernel.pageTables().readTable(table, entries);
    for (unsigned i = 0; i < cpu::ptEntriesPerPage; ++i) {
        const cpu::Pte pte{entries[i]};
        if (!pte.present())
            continue;
        if (level == 0) {
            if (leaves)
                ++*leaves;
            if (pte.nvmBacked()) {
                if (nvm.contains(pte.frameAddr()))
                    live.insert(pte.frameAddr());
                else
                    ++dangling;
            }
        } else {
            collectPtFrames(kernel, pte.frameAddr(), level - 1, live,
                            dangling, leaves);
        }
    }
}

} // namespace

const char *
recoveryErrorName(RecoveryErrorCode code)
{
    switch (code) {
      case RecoveryErrorCode::headerChecksumMismatch:
        return "headerChecksumMismatch";
      case RecoveryErrorCode::contextChecksumMismatch:
        return "contextChecksumMismatch";
      case RecoveryErrorCode::contextBadCount:
        return "contextBadCount";
      case RecoveryErrorCode::mappingListBadCount:
        return "mappingListBadCount";
      case RecoveryErrorCode::danglingMapping:
        return "danglingMapping";
      case RecoveryErrorCode::schemeMismatch:
        return "schemeMismatch";
      case RecoveryErrorCode::redoLogHeaderCorrupt:
        return "redoLogHeaderCorrupt";
      case RecoveryErrorCode::redoLogTruncatedTail:
        return "redoLogTruncatedTail";
      case RecoveryErrorCode::retiredFrameDamage:
        return "retiredFrameDamage";
    }
    return "?";
}

RecoveryReport
recover(os::Kernel &kernel, PtScheme scheme)
{
    RecoveryReport report;
    sim::Simulation &sim = kernel.simulation();
    const Tick t0 = sim.now();
    constexpr unsigned noSlot = ~0u;
    KINDLE_PROF_SCOPE(recovery);
    KINDLE_TRACE_SPAN(recovery, "recover");

    const auto fail = [&report](RecoveryErrorCode code, unsigned slot,
                                std::string detail) {
        report.errors.push_back(
            RecoveryError{code, slot, std::move(detail)});
    };

    // 0. Adopt the bad-frame list first: every later judgement about
    //    durable bytes must know which frames the media has lost.
    //    (The kernel constructor already loaded it; re-reading here
    //    keeps recovery self-contained and idempotent.)
    os::BadFrameTable &bad = kernel.badFrameTable();
    std::unordered_set<Addr> allocated;
    {
        KINDLE_TRACE_SPAN(recovery, "recover.bitmap");
        bad.loadFromNvm();
        report.retiredFrames = bad.retiredCount();

        // 1. Frame allocator state survives in the durable bitmap.
        kernel.nvmAllocator().recoverFromBitmap();
        kernel.nvmAllocator().forEachAllocated(
            [&](Addr frame) { allocated.insert(frame); });
    }
    KINDLE_CRASH_SITE("recover.after_bitmap");

    // 1a. Audit the surviving metadata redo log.  The consistent
    //     checkpoint copies make replay unnecessary, but a torn tail
    //     or unreadable header is damage worth classifying.
    {
        KINDLE_TRACE_SPAN(recovery, "recover.logAudit");
        const os::NvmLayout &layout = kernel.nvmLayout();
        const RedoScan scan = RedoLog::audit(
            kernel.kmem(), layout.redoLog, layout.redoLogBytes / 2);
        report.redoRecordsSurvived = scan.records.size();
        if (scan.headerCorrupt) {
            fail(RecoveryErrorCode::redoLogHeaderCorrupt, noSlot,
                 "metadata log header failed validation");
        } else if (scan.truncatedTail) {
            fail(RecoveryErrorCode::redoLogTruncatedTail, noSlot,
                 csprintf("log tail torn after {} valid records",
                        scan.records.size()));
        }
    }
    KINDLE_CRASH_SITE("recover.after_log_audit");

    // 1b. Persistent scheme: repair any wrapped page-table store the
    //     crash tore mid-writeback, before the tables are trusted.
    if (scheme == PtScheme::persistent) {
        KINDLE_TRACE_SPAN(recovery, "recover.ptRollback");
        const os::NvmLayout &layout = kernel.nvmLayout();
        const std::uint64_t half = layout.redoLogBytes / 2;
        const PtUndoReport undo = recoverPtUndoLog(
            kernel.kmem(), layout.nvm, layout.redoLog + half, half);
        report.tornPtStoresRolledBack = undo.tornStoresRolledBack;
        KINDLE_CRASH_SITE("recover.after_pt_rollback");
    }

    std::unordered_set<Addr> live_frames;

    // 2-3. Scan the directory in salvage mode: validate every durable
    // byte of a slot before acting on it; quarantine what fails.
    for (unsigned idx = 0; idx < kernel.nvmLayout().procSlots; ++idx) {
        KINDLE_TRACE_SPAN_ARGS(recovery, "recover.slot",
                               "slot={}", idx);
        SavedStateSlot slot(kernel.kmem(), kernel.nvmLayout(), idx);
        const SlotHeader hdr = slot.readHeader();

        const ImageStatus hdr_status = SavedStateSlot::verifyHeader(hdr);
        if (hdr_status == ImageStatus::empty ||
            hdr_status == ImageStatus::quarantined) {
            continue;
        }

        const auto quarantine = [&](RecoveryErrorCode code,
                                    std::string detail) {
            fail(code, idx, std::move(detail));
            slot.quarantine();
            ++report.processesQuarantined;
            KINDLE_CRASH_SITE("recover.after_quarantine");
        };

        // A slot whose frames the media lost cannot be trusted even
        // if its checksums happen to validate (ECC may still be
        // correcting, but the frame is on its way out).
        if (bad.anyRetired(kernel.nvmLayout().slotAddr(idx),
                           os::savedStateSlotBytes)) {
            quarantine(RecoveryErrorCode::retiredFrameDamage,
                       "saved-state slot sits on a retired frame");
            continue;
        }

        if (hdr_status != ImageStatus::ok) {
            quarantine(RecoveryErrorCode::headerChecksumMismatch,
                       csprintf("header status {}",
                              imageStatusName(hdr_status)));
            continue;
        }
        if (hdr.scheme != static_cast<std::uint32_t>(scheme)) {
            quarantine(
                RecoveryErrorCode::schemeMismatch,
                csprintf("slot checkpointed under the {} scheme",
                       ptSchemeName(static_cast<PtScheme>(hdr.scheme))));
            continue;
        }

        SavedContext ctx;
        std::uint32_t stored_vmas = 0;
        const ImageStatus ctx_status =
            slot.readConsistentContext(hdr, ctx, &stored_vmas);
        if (ctx_status == ImageStatus::badCount) {
            quarantine(RecoveryErrorCode::contextBadCount,
                       csprintf("context claims {} VMAs", stored_vmas));
            continue;
        }
        if (ctx_status != ImageStatus::ok) {
            quarantine(RecoveryErrorCode::contextChecksumMismatch,
                       "consistent context failed its checksum");
            continue;
        }

        const bool persistent = scheme == PtScheme::persistent;

        std::vector<MappingEntry> mappings;
        if (!persistent) {
            if (bad.anyRetired(kernel.nvmLayout().mappingListAddr(idx),
                               hdr.mappingCount *
                                   sizeof(MappingEntry))) {
                quarantine(RecoveryErrorCode::retiredFrameDamage,
                           "mapping list sits on a retired frame");
                continue;
            }
            const ImageStatus map_status =
                slot.readMappingList(hdr, mappings);
            if (map_status != ImageStatus::ok) {
                quarantine(
                    RecoveryErrorCode::mappingListBadCount,
                    csprintf("mapping list claims {} entries",
                           hdr.mappingCount));
                continue;
            }
        } else if (!kernel.nvmLayout().nvm.contains(hdr.ptRoot)) {
            quarantine(RecoveryErrorCode::danglingMapping,
                       csprintf("pt root {} outside NVM", hdr.ptRoot));
            continue;
        } else if (bad.isRetired(hdr.ptRoot)) {
            quarantine(RecoveryErrorCode::retiredFrameDamage,
                       csprintf("pt root {} on a retired frame",
                              hdr.ptRoot));
            continue;
        }

        // The durable image validates: bring the process back.
        os::Process &proc = kernel.spawnShell(
            std::string(hdr.name), idx, /*create_pt=*/!persistent);
        proc.restored = true;
        proc.context = ctx.regs;
        SavedStateSlot::restoreAspace(proc, ctx);

        if (persistent) {
            // Adopt the NVM-resident table: just reload the root
            // (the "set PTBR" step of the paper).
            proc.ptRoot = hdr.ptRoot;
            kernel.pageTables().adopt(proc.ptRoot);
            std::uint64_t dangling = 0;
            collectPtFrames(kernel, proc.ptRoot, cpu::ptLevels - 1,
                            live_frames, dangling,
                            &proc.residentPages);
            if (dangling > 0) {
                fail(RecoveryErrorCode::danglingMapping, idx,
                     csprintf("{} dangling page-table pointers",
                            dangling));
            }
        } else {
            // Rebuild the DRAM page table from the mapping list,
            // dropping entries that reference bogus or free frames.
            constexpr std::uint64_t maxVpn =
                std::uint64_t{1} << (48 - pageShift);
            for (const MappingEntry &m : mappings) {
                const Addr frame = m.pfn << pageShift;
                if (m.vpn >= maxVpn || !allocated.count(frame)) {
                    fail(RecoveryErrorCode::danglingMapping, idx,
                         csprintf("vpn {} -> pfn {}", m.vpn,
                                m.pfn));
                    ++report.mappingsDropped;
                    continue;
                }
                if (bad.isRetired(frame)) {
                    // The data page itself died between checkpoint
                    // and crash; remapping it would hand the process
                    // uncorrectable garbage.
                    fail(RecoveryErrorCode::retiredFrameDamage, idx,
                         csprintf("vpn {} -> retired frame {}",
                                m.vpn, frame));
                    ++report.mappingsDropped;
                    continue;
                }
                kernel.pageTables().map(
                    proc.ptRoot, m.vpn << pageShift, frame,
                    /*writable=*/true, /*nvm_backed=*/true);
                ++proc.residentPages;
                live_frames.insert(frame);
                ++report.mappingsRestored;
            }
        }

        proc.state = os::ProcState::ready;
        ++report.processesRecovered;
        KINDLE_TRACE_INSTANT_ARGS(recovery, "recover.restored",
                                  "pid={} vmas={}", proc.pid,
                                  ctx.vmas.size());
        KINDLE_CRASH_SITE("recover.after_slot_restore");
    }

    // 4. Reclaim NVM frames that were allocated after the last
    //    checkpoint (present in the bitmap, reachable from nothing).
    //    Quarantined slots contribute here too: their frames are no
    //    longer reachable and return to the allocator.
    KINDLE_CRASH_SITE("recover.before_reclaim");
    {
        KINDLE_TRACE_SPAN(recovery, "recover.reclaim");
        std::vector<Addr> leaked;
        kernel.nvmAllocator().forEachAllocated([&](Addr frame) {
            if (!live_frames.count(frame))
                leaked.push_back(frame);
        });
        for (Addr frame : leaked)
            kernel.nvmAllocator().free(frame);
        report.framesReclaimed = leaked.size();
    }

    KINDLE_CRASH_SITE("recover.complete");
    report.recoveryTicks = sim.now() - t0;
    return report;
}

} // namespace kindle::persist
