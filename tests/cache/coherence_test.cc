/**
 * @file
 * Exhaustive MESI-lite transition coverage.  The state machine is a
 * pure function (MesiDirectory::apply), so every transition is driven
 * directly; a second set of tests checks the directory's stat
 * accounting and the multi-core hierarchy integration (invalidations
 * and forced writebacks actually reach the private caches).
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "base/bitfield.hh"
#include "base/random.hh"
#include "cache/coherence.hh"
#include "cache/hierarchy.hh"

namespace kindle::cache
{
namespace
{

constexpr bool rd = false;
constexpr bool wr = true;

TEST(MesiApplyTest, InvalidReadGoesExclusive)
{
    DirEntry e;
    const CoherenceActions a = MesiDirectory::apply(e, 0, rd);
    EXPECT_EQ(e.state, MesiState::exclusive);
    EXPECT_EQ(e.owner(), 0u);
    EXPECT_EQ(e.sharers, 0b01u);
    EXPECT_EQ(a.invalidate, 0u);
    EXPECT_EQ(a.writebackFrom, 0u);
    EXPECT_FALSE(a.upgrade);
}

TEST(MesiApplyTest, InvalidWriteGoesModified)
{
    DirEntry e;
    const CoherenceActions a = MesiDirectory::apply(e, 2, wr);
    EXPECT_EQ(e.state, MesiState::modified);
    EXPECT_EQ(e.owner(), 2u);
    EXPECT_EQ(e.sharers, 0b100u);
    EXPECT_EQ(a.invalidate, 0u);
    EXPECT_EQ(a.writebackFrom, 0u);
}

TEST(MesiApplyTest, ExclusiveOwnerReadStaysExclusive)
{
    DirEntry e;
    MesiDirectory::apply(e, 1, rd);
    const CoherenceActions a = MesiDirectory::apply(e, 1, rd);
    EXPECT_EQ(e.state, MesiState::exclusive);
    EXPECT_EQ(a.invalidate, 0u);
    EXPECT_EQ(a.writebackFrom, 0u);
}

TEST(MesiApplyTest, ExclusiveOwnerWriteUpgradesSilently)
{
    DirEntry e;
    MesiDirectory::apply(e, 1, rd);
    const CoherenceActions a = MesiDirectory::apply(e, 1, wr);
    EXPECT_EQ(e.state, MesiState::modified);
    EXPECT_EQ(e.owner(), 1u);
    // Silent: no messages for an E->M upgrade by the owner.
    EXPECT_EQ(a.invalidate, 0u);
    EXPECT_EQ(a.writebackFrom, 0u);
    EXPECT_FALSE(a.upgrade);
}

TEST(MesiApplyTest, ExclusiveRemoteReadGoesShared)
{
    DirEntry e;
    MesiDirectory::apply(e, 0, rd);
    const CoherenceActions a = MesiDirectory::apply(e, 1, rd);
    EXPECT_EQ(e.state, MesiState::shared);
    EXPECT_EQ(e.sharers, 0b11u);
    // The clean copy needs no writeback and no invalidation.
    EXPECT_EQ(a.invalidate, 0u);
    EXPECT_EQ(a.writebackFrom, 0u);
}

TEST(MesiApplyTest, ExclusiveRemoteWriteInvalidatesOldOwner)
{
    DirEntry e;
    MesiDirectory::apply(e, 0, rd);
    const CoherenceActions a = MesiDirectory::apply(e, 1, wr);
    EXPECT_EQ(e.state, MesiState::modified);
    EXPECT_EQ(e.owner(), 1u);
    EXPECT_EQ(e.sharers, 0b10u);
    EXPECT_EQ(a.invalidate, 0b01u);
    EXPECT_EQ(a.writebackFrom, 0u);  // clean copy: drop, don't push
}

TEST(MesiApplyTest, SharedReadJoinsSharerSet)
{
    DirEntry e;
    MesiDirectory::apply(e, 0, rd);
    MesiDirectory::apply(e, 1, rd);  // now S {0,1}
    const CoherenceActions a = MesiDirectory::apply(e, 2, rd);
    EXPECT_EQ(e.state, MesiState::shared);
    EXPECT_EQ(e.sharers, 0b111u);
    EXPECT_EQ(a.invalidate, 0u);
}

TEST(MesiApplyTest, SharedWriteBySharerUpgrades)
{
    DirEntry e;
    MesiDirectory::apply(e, 0, rd);
    MesiDirectory::apply(e, 1, rd);
    MesiDirectory::apply(e, 2, rd);  // S {0,1,2}
    const CoherenceActions a = MesiDirectory::apply(e, 1, wr);
    EXPECT_EQ(e.state, MesiState::modified);
    EXPECT_EQ(e.owner(), 1u);
    EXPECT_EQ(e.sharers, 0b10u);
    EXPECT_TRUE(a.upgrade);
    // Every sharer but the writer is invalidated.
    EXPECT_EQ(a.invalidate, 0b101u);
    EXPECT_EQ(a.writebackFrom, 0u);
}

TEST(MesiApplyTest, SharedWriteByNonSharerInvalidatesAll)
{
    DirEntry e;
    MesiDirectory::apply(e, 0, rd);
    MesiDirectory::apply(e, 1, rd);  // S {0,1}
    const CoherenceActions a = MesiDirectory::apply(e, 3, wr);
    EXPECT_EQ(e.state, MesiState::modified);
    EXPECT_EQ(e.owner(), 3u);
    EXPECT_EQ(e.sharers, 0b1000u);
    EXPECT_FALSE(a.upgrade);  // the writer held no copy
    EXPECT_EQ(a.invalidate, 0b11u);
}

TEST(MesiApplyTest, ModifiedOwnerAccessIsFree)
{
    DirEntry e;
    MesiDirectory::apply(e, 0, wr);
    for (const bool is_write : {rd, wr}) {
        const CoherenceActions a = MesiDirectory::apply(e, 0, is_write);
        EXPECT_EQ(e.state, MesiState::modified);
        EXPECT_EQ(a.invalidate, 0u);
        EXPECT_EQ(a.writebackFrom, 0u);
    }
}

TEST(MesiApplyTest, ModifiedRemoteReadForcesWriteback)
{
    DirEntry e;
    MesiDirectory::apply(e, 0, wr);
    const CoherenceActions a = MesiDirectory::apply(e, 1, rd);
    EXPECT_EQ(e.state, MesiState::shared);
    EXPECT_EQ(e.sharers, 0b11u);
    EXPECT_EQ(a.writebackFrom, 0b01u);  // owner pushes dirty copy down
    EXPECT_EQ(a.invalidate, 0u);        // ... but keeps a clean copy
}

TEST(MesiApplyTest, ModifiedRemoteWriteTransfersOwnership)
{
    DirEntry e;
    MesiDirectory::apply(e, 0, wr);
    const CoherenceActions a = MesiDirectory::apply(e, 1, wr);
    EXPECT_EQ(e.state, MesiState::modified);
    EXPECT_EQ(e.owner(), 1u);
    EXPECT_EQ(e.sharers, 0b10u);
    // Invalidation of a dirty line writes it back on the way out, so
    // a plain invalidate message is all the protocol sends.
    EXPECT_EQ(a.invalidate, 0b01u);
    EXPECT_EQ(a.writebackFrom, 0u);
}

TEST(MesiDirectoryTest, CleanLineDemotesModifiedToExclusive)
{
    MesiDirectory dir(4);
    dir.access(0x1000, 0, wr);
    dir.cleanLine(0x1000);
    EXPECT_EQ(dir.lookup(0x1000).state, MesiState::exclusive);
    EXPECT_EQ(dir.lookup(0x1000).owner(), 0u);
    // cleanLine on shared / untracked lines is a no-op.
    dir.access(0x2000, 0, rd);
    dir.access(0x2000, 1, rd);
    dir.cleanLine(0x2000);
    EXPECT_EQ(dir.lookup(0x2000).state, MesiState::shared);
    dir.cleanLine(0x9000);
    EXPECT_EQ(dir.lookup(0x9000).state, MesiState::invalid);
}

TEST(MesiDirectoryTest, DropLineAndResetForgetCopies)
{
    MesiDirectory dir(2);
    dir.access(0x1000, 0, wr);
    dir.access(0x2000, 1, rd);
    dir.dropLine(0x1000);
    EXPECT_EQ(dir.lookup(0x1000).state, MesiState::invalid);
    EXPECT_EQ(dir.lookup(0x2000).state, MesiState::exclusive);
    dir.reset();
    EXPECT_EQ(dir.lookup(0x2000).state, MesiState::invalid);
}

TEST(MesiDirectoryTest, StatsCountProtocolTraffic)
{
    MesiDirectory dir(4);
    dir.access(0x1000, 0, rd);  // I->E
    dir.access(0x1000, 1, rd);  // E->S: a shared fill
    dir.access(0x1000, 1, wr);  // S->M: upgrade + 1 invalidation
    dir.access(0x1000, 2, rd);  // M->S: forced writeback + fill
    auto &st = dir.stats();
    EXPECT_EQ(st.scalarValue("invalidations"), 1);
    EXPECT_EQ(st.scalarValue("writebacksForced"), 1);
    EXPECT_EQ(st.scalarValue("upgrades"), 1);
    EXPECT_EQ(st.scalarValue("sharedFills"), 2);
}

TEST(MesiDirectoryTest, OfflineCoreDropsOwnedLines)
{
    MesiDirectory dir(4);
    dir.access(0x1000, 1, wr);  // M, owned by 1
    dir.access(0x2000, 1, rd);  // E, owned by 1
    dir.access(0x3000, 0, wr);  // M, owned by a survivor
    dir.offlineCore(1);
    // The dead core's private caches were flushed: the LLC copy is
    // authoritative and the lines go untracked.
    EXPECT_EQ(dir.lookup(0x1000).state, MesiState::invalid);
    EXPECT_EQ(dir.lookup(0x2000).state, MesiState::invalid);
    // Other cores' claims are untouched.
    EXPECT_EQ(dir.lookup(0x3000).state, MesiState::modified);
    EXPECT_EQ(dir.lookup(0x3000).owner(), 0u);
}

TEST(MesiDirectoryTest, OfflineCoreClearsSharerBit)
{
    MesiDirectory dir(4);
    dir.access(0x1000, 0, rd);
    dir.access(0x1000, 1, rd);  // S {0,1}
    dir.offlineCore(1);
    EXPECT_EQ(dir.lookup(0x1000).state, MesiState::shared);
    EXPECT_EQ(dir.lookup(0x1000).sharers, 0b01u);
}

TEST(MesiDirectoryTest, OfflineCoreErasesLineWithNoSharersLeft)
{
    MesiDirectory dir(4);
    dir.access(0x1000, 1, rd);
    dir.access(0x1000, 2, rd);  // S {1,2}
    dir.offlineCore(1);
    EXPECT_EQ(dir.lookup(0x1000).state, MesiState::shared);
    dir.offlineCore(2);
    EXPECT_EQ(dir.lookup(0x1000).state, MesiState::invalid);
}

TEST(MesiDirectoryTest, StateNamesAreStable)
{
    EXPECT_STREQ(mesiStateName(MesiState::invalid), "I");
    EXPECT_STREQ(mesiStateName(MesiState::shared), "S");
    EXPECT_STREQ(mesiStateName(MesiState::exclusive), "E");
    EXPECT_STREQ(mesiStateName(MesiState::modified), "M");
}

TEST(MesiDirectoryTest, EntryPacksToEightBytes)
{
    // The table stores one slot per tracked line, so this is the
    // directory's host cost per line.
    EXPECT_EQ(MesiDirectory::slotBytes, 8u);
}

TEST(MesiDirectoryTest, TracksLinesUpToTheAddressLimit)
{
    // 30-bit line indices: 64 GiB of physical space.
    EXPECT_EQ(MesiDirectory::addrLimit, Addr(64) * oneGiB);
    MesiDirectory dir(32);
    const Addr top = MesiDirectory::addrLimit - lineSize;
    dir.access(0, 0, wr);
    dir.access(top, 31, wr);
    EXPECT_EQ(dir.lookup(0).state, MesiState::modified);
    EXPECT_EQ(dir.lookup(0).owner(), 0u);
    EXPECT_EQ(dir.lookup(top).state, MesiState::modified);
    EXPECT_EQ(dir.lookup(top).owner(), 31u);
    EXPECT_EQ(dir.lookup(top).sharers, 1u << 31);
    // An address past the limit aliases no tracked line.
    EXPECT_EQ(dir.lookup(top + MesiDirectory::addrLimit).state,
              MesiState::invalid);
}

// ---- Differential test against a std::map directory ------------

bool
isOwned(const DirEntry &e)
{
    return e.state == MesiState::exclusive ||
           e.state == MesiState::modified;
}

bool
sameEntry(const DirEntry &a, const DirEntry &b)
{
    return a.state == b.state && a.sharers == b.sharers &&
           (!isOwned(a) || a.owner() == b.owner());
}

/**
 * The open-addressed directory against a std::map of entries driven
 * by the same (already exhaustively tested) transition function: every
 * action, every entry and every stat must agree through inserts,
 * growths, erases inside probe chains, offlineCore and reset.  The
 * model drops an offlined core's E/M lines by owner, as the protocol
 * states it; the directory clears the sharer bit instead.
 */
void
checkAgainstMapModel(unsigned cores, std::uint64_t seed)
{
    MesiDirectory dir(cores);
    std::map<Addr, DirEntry> ref;
    double invalidations = 0, forced = 0, upgrades = 0, fills = 0;

    Random rng(seed);
    // Line 0, a dense run, the top lines of the trackable range and
    // scattered lines below it, so chains form both from hash
    // collisions and from neighbouring homes, and the widest line
    // indices go through every table operation.
    std::vector<Addr> pool = {0};
    for (Addr a = lineSize; pool.size() < 2000; a += lineSize)
        pool.push_back(a);
    for (Addr a = MesiDirectory::addrLimit; pool.size() < 2100;)
        pool.push_back(a -= lineSize);
    while (pool.size() < 7000) {
        pool.push_back(rng.uniform(MesiDirectory::addrLimit) &
                       ~Addr(lineSize - 1));
    }

    const auto checkAll = [&](int op) {
        ASSERT_EQ(dir.trackedLines(), ref.size()) << "op " << op;
        for (const auto &[line, entry] : ref)
            ASSERT_TRUE(sameEntry(dir.lookup(line), entry))
                << "op " << op << " line " << line;
    };

    std::size_t capacity = dir.capacity();
    unsigned growths = 0;
    bool was_reset = false;
    for (int op = 0; op < 60000; ++op) {
        // The first half only grows the table; the second half erases
        // about as often as it inserts.
        const unsigned kind = rng.uniform(op < 30000 ? 80 : 100);
        const Addr line = pool[rng.uniform(pool.size())];
        if (kind < 70) {
            const CpuId cpu = static_cast<CpuId>(rng.uniform(cores));
            const bool is_write = rng.uniform(3) == 0;
            DirEntry &want = ref[line];
            if (!is_write && want.state != MesiState::invalid &&
                !(want.sharers & (1u << cpu))) {
                ++fills;
            }
            const CoherenceActions expect =
                MesiDirectory::apply(want, cpu, is_write);
            const CoherenceActions got = dir.access(line, cpu, is_write);
            ASSERT_EQ(got.invalidate, expect.invalidate) << "op " << op;
            ASSERT_EQ(got.writebackFrom, expect.writebackFrom)
                << "op " << op;
            ASSERT_EQ(got.upgrade, expect.upgrade) << "op " << op;
            invalidations += popCount(expect.invalidate);
            forced += popCount(expect.writebackFrom);
            upgrades += expect.upgrade;
        } else if (kind < 80) {
            dir.cleanLine(line);
            if (auto it = ref.find(line); it != ref.end() &&
                it->second.state == MesiState::modified) {
                it->second.state = MesiState::exclusive;
            }
        } else {
            dir.dropLine(line);
            ref.erase(line);
        }
        ASSERT_TRUE(sameEntry(dir.lookup(line),
                              ref.count(line) ? ref[line] : DirEntry{}))
            << "op " << op;

        if (dir.capacity() != capacity) {
            ++growths;
            capacity = dir.capacity();
            checkAll(op);
        }
        if (op % 5000 == 4999) {
            const CpuId cpu = static_cast<CpuId>(rng.uniform(cores));
            dir.offlineCore(cpu);
            for (auto it = ref.begin(); it != ref.end();) {
                DirEntry &e = it->second;
                const bool owned = isOwned(e) && e.owner() == cpu;
                e.sharers &= ~(1u << cpu);
                it = owned || e.sharers == 0 ? ref.erase(it)
                                             : std::next(it);
            }
            checkAll(op);
        }
        if (op == 45000) {
            ASSERT_GE(growths, 3u);
            dir.reset();
            ref.clear();
            was_reset = true;
            checkAll(op);
        }
    }
    checkAll(-1);
    EXPECT_TRUE(was_reset);
    auto &st = dir.stats();
    EXPECT_EQ(st.scalarValue("invalidations"), invalidations);
    EXPECT_EQ(st.scalarValue("writebacksForced"), forced);
    EXPECT_EQ(st.scalarValue("upgrades"), upgrades);
    EXPECT_EQ(st.scalarValue("sharedFills"), fills);
}

TEST(MesiDirectoryDifferentialTest, MatchesMapModel)
{
    checkAgainstMapModel(4, 17);
}

TEST(MesiDirectoryDifferentialTest, MatchesMapModelAt32Cores)
{
    // Sharer bit 31 and ownership by core 31 are in play.
    checkAgainstMapModel(32, 31);
}

// ---- Hierarchy integration -------------------------------------

mem::HybridMemoryParams
smallMem()
{
    mem::HybridMemoryParams p;
    p.dramBytes = 64 * oneMiB;
    p.nvmBytes = 64 * oneMiB;
    return p;
}

struct SmpRig
{
    SmpRig(unsigned cores)
        : memory(smallMem()),
          hier(HierarchyParams{}, memory, cores)
    {}

    mem::HybridMemory memory;
    Hierarchy hier;
};

TEST(HierarchySmpTest, SingleCoreHasNoDirectory)
{
    SmpRig rig(1);
    EXPECT_EQ(rig.hier.directory(), nullptr);
}

TEST(HierarchySmpTest, RemoteWriteEvictsOtherCoresPrivateCopy)
{
    SmpRig rig(2);
    rig.hier.access(0, mem::MemCmd::read, 0x10000, 8, 0);
    ASSERT_TRUE(rig.hier.l1(0).contains(0x10000));
    rig.hier.access(1, mem::MemCmd::write, 0x10000, 8, 0);
    EXPECT_FALSE(rig.hier.l1(0).contains(0x10000));
    EXPECT_FALSE(rig.hier.l2(0).contains(0x10000));
    EXPECT_TRUE(rig.hier.l1(1).contains(0x10000));
    EXPECT_EQ(rig.hier.directory()->lookup(0x10000).state,
              MesiState::modified);
}

TEST(HierarchySmpTest, RemoteReadOfDirtyLineForcesWriteback)
{
    SmpRig rig(2);
    rig.hier.access(0, mem::MemCmd::write, 0x20000, 8, 0);
    rig.hier.access(1, mem::MemCmd::read, 0x20000, 8, 0);
    // Both private hierarchies keep a (now clean) copy.
    EXPECT_TRUE(rig.hier.l1(0).contains(0x20000));
    EXPECT_TRUE(rig.hier.l1(1).contains(0x20000));
    EXPECT_EQ(rig.hier.directory()->lookup(0x20000).state,
              MesiState::shared);
    EXPECT_EQ(
        rig.hier.directory()->stats().scalarValue("writebacksForced"),
        1);
}

TEST(HierarchySmpTest, CoherenceTrafficCostsLatency)
{
    SmpRig contended(2);
    contended.hier.access(0, mem::MemCmd::write, 0x30000, 8, 0);
    const Tick shared_read =
        contended.hier.access(1, mem::MemCmd::read, 0x30000, 8, 0)
            .latency;

    SmpRig quiet(2);
    quiet.hier.access(0, mem::MemCmd::write, 0x30000, 8, 0);
    const Tick local_read =
        quiet.hier.access(0, mem::MemCmd::read, 0x30000, 8, 0).latency;

    // Pulling a dirty line out of another core's private cache is
    // strictly slower than re-reading one's own copy.
    EXPECT_GT(shared_read, local_read);
}

TEST(HierarchySmpTest, OfflineCoreFlushesPrivateCachesThroughLlc)
{
    SmpRig rig(2);
    rig.hier.access(1, mem::MemCmd::write, 0x50000, 8, 0);
    ASSERT_TRUE(rig.hier.l1(1).contains(0x50000));
    const Tick cost = rig.hier.offlineCore(1, 0);
    EXPECT_GT(cost, 0u);  // the dirty line had to be written back
    EXPECT_FALSE(rig.hier.l1(1).contains(0x50000));
    EXPECT_FALSE(rig.hier.l2(1).contains(0x50000));
    EXPECT_EQ(rig.hier.directory()->lookup(0x50000).state,
              MesiState::invalid);
    // The survivor reads the flushed data without coherence traffic
    // to the dead core.
    const auto inval_before =
        rig.hier.directory()->stats().scalarValue("invalidations");
    rig.hier.access(0, mem::MemCmd::read, 0x50000, 8, 0);
    EXPECT_TRUE(rig.hier.l1(0).contains(0x50000));
    EXPECT_EQ(rig.hier.directory()->stats().scalarValue(
                  "invalidations"),
              inval_before);
}

TEST(HierarchySmpTest, FlushAllResetsDirectory)
{
    SmpRig rig(2);
    rig.hier.access(0, mem::MemCmd::write, 0x40000, 8, 0);
    rig.hier.flushAll(0);
    EXPECT_EQ(rig.hier.directory()->lookup(0x40000).state,
              MesiState::invalid);
}

} // namespace
} // namespace kindle::cache
