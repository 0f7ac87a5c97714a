#include <gtest/gtest.h>

#include <map>
#include <set>

#include "kindle/kindle.hh"
#include "kindle/microbench.hh"

namespace kindle::hscc
{
namespace
{

KindleConfig
hsccConfig(unsigned threshold, bool charge_os = true,
           unsigned pool_pages = 64)
{
    KindleConfig cfg;
    cfg.memory.dramBytes = 256 * oneMiB;
    cfg.memory.nvmBytes = 512 * oneMiB;
    HsccParams p;
    p.fetchThreshold = threshold;
    p.chargeOsTime = charge_os;
    p.dramPoolPages = pool_pages;
    p.migrationInterval = oneMs;  // fast intervals for tests
    cfg.hscc = p;
    return cfg;
}

/** Hammer a small set of NVM pages so counts exceed any threshold. */
std::unique_ptr<micro::ScriptStream>
hotPageProgram(unsigned pages, unsigned rounds, unsigned hammer)
{
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, pages * pageSize, true);
    b.touchPages(micro::scriptBase, pages * pageSize);
    for (unsigned r = 0; r < rounds; ++r) {
        for (unsigned h = 0; h < hammer; ++h) {
            for (unsigned p = 0; p < pages; ++p) {
                // Distinct lines so LLC misses keep occurring.
                b.read(micro::scriptBase + p * pageSize +
                       ((r * hammer + h) % 64) * 64);
            }
        }
        b.compute(1000000);
    }
    b.munmap(micro::scriptBase, pages * pageSize);
    b.exit();
    return b.build();
}

TEST(HsccTest, HotPagesMigrateToDram)
{
    KindleSystem sys(hsccConfig(5));
    sys.run(hotPageProgram(16, 10, 8), "hot");
    EXPECT_GT(sys.hsccEngine()->pagesMigrated(), 0u);
}

TEST(HsccTest, MigratedPagesServeFromDram)
{
    KindleSystem sys(hsccConfig(2));
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, 4 * pageSize, true);
    b.touchPages(micro::scriptBase, 4 * pageSize);
    // Hammer distinct lines to raise counts past the threshold ...
    for (int h = 0; h < 32; ++h)
        for (unsigned p = 0; p < 4; ++p)
            b.read(micro::scriptBase + p * pageSize + (h % 64) * 64);
    // ... let the migration interval fire ...
    for (int i = 0; i < 5; ++i)
        b.compute(3000000);
    // Idle op so state is stable before we inspect.
    b.compute(1);
    b.exit();
    const Pid pid = sys.kernel().spawn(b.build(), "migrator");
    sys.runAll();

    // PTE of page 0 now carries the remap flag and a DRAM frame.
    os::Process *proc = sys.kernel().findProcess(pid);
    (void)proc;
    EXPECT_GT(sys.hsccEngine()->pagesMigrated(), 0u);
    // The engine reverse map agrees with the pool.
    EXPECT_GT(sys.hsccEngine()
                  ->stats()
                  .scalarValue("hsccMapTable.updates"),
              0);
}

TEST(HsccTest, HigherThresholdMigratesFewerPages)
{
    auto migrated_with = [](unsigned threshold) {
        KindleSystem sys(hsccConfig(threshold));
        sys.run(hotPageProgram(32, 8, 4), "hot");
        return sys.hsccEngine()->pagesMigrated();
    };
    const auto th_low = migrated_with(2);
    const auto th_high = migrated_with(200);
    EXPECT_GT(th_low, th_high);
}

TEST(HsccTest, CountsResetEachInterval)
{
    KindleSystem sys(hsccConfig(1000));  // nothing migrates
    sys.run(hotPageProgram(8, 6, 4), "counter");
    // Intervals ran, counts were maintained, nothing migrated.
    EXPECT_GT(sys.hsccEngine()->stats().scalarValue("intervals"), 1);
    EXPECT_EQ(sys.hsccEngine()->pagesMigrated(), 0u);
    EXPECT_GT(sys.hsccEngine()->stats().scalarValue(
                  "countWritebacks"),
              0);
}

TEST(HsccTest, PoolPressureCausesDisplacements)
{
    // More hot pages than pool slots: clean/dirty selections occur.
    KindleSystem sys(hsccConfig(2, true, 8));
    sys.run(hotPageProgram(64, 12, 6), "pressure");
    const auto &st = sys.hsccEngine()->stats();
    EXPECT_GT(st.scalarValue("pagesMigrated"),
              8);  // beyond pool size
    EXPECT_GT(st.scalarValue("reverts"), 0);
}

TEST(HsccTest, OsCostsMakeRunsSlower)
{
    // Figure 6's core comparison: identical run with and without OS
    // migration costs.
    auto time_with = [](bool charge) {
        KindleSystem sys(hsccConfig(3, charge));
        return sys.run(hotPageProgram(32, 10, 6), "hot");
    };
    const Tick with_os = time_with(true);
    const Tick hw_only = time_with(false);
    EXPECT_GT(with_os, hw_only);
}

TEST(HsccTest, SelectionAndCopyTimesAccounted)
{
    KindleSystem sys(hsccConfig(2, true, 8));
    sys.run(hotPageProgram(64, 12, 6), "pressure");
    const Tick sel = sys.hsccEngine()->selectionTicks();
    const Tick copy = sys.hsccEngine()->copyTicks();
    EXPECT_GT(copy, 0u);
    EXPECT_GT(sel, 0u);
    // Page copy dominates selection (paper Table VI).
    EXPECT_GT(copy, sel);
}

TEST(HsccTest, UnmapOfMigratedPageFreesNvmHome)
{
    KindleSystem sys(hsccConfig(2));
    const auto before = sys.kernel().nvmAllocator().allocatedFrames();
    sys.run(hotPageProgram(16, 10, 8), "hot");
    EXPECT_GT(sys.hsccEngine()->pagesMigrated(), 0u);
    // Every NVM home frame released despite the PTEs pointing at
    // DRAM cache pages at unmap time.
    EXPECT_EQ(sys.kernel().nvmAllocator().allocatedFrames(), before);
}

TEST(HsccTest, DynamicThresholdBacksOffUnderFlood)
{
    KindleConfig cfg = hsccConfig(2, true, 8);
    cfg.hscc->dynamicThreshold = true;
    KindleSystem sys(cfg);
    sys.run(hotPageProgram(64, 12, 6), "flood");
    // Far more than 8 candidates per interval: the controller must
    // have raised the threshold above its aggressive start.
    EXPECT_GT(sys.hsccEngine()->currentThreshold(), 2u);
    EXPECT_GT(sys.hsccEngine()->stats().scalarValue(
                  "thresholdRaises"),
              0);
}

TEST(HsccTest, DynamicThresholdRelaxesWhenIdle)
{
    KindleConfig cfg = hsccConfig(400, true, 64);
    cfg.hscc->dynamicThreshold = true;
    KindleSystem sys(cfg);
    // Accesses never reach a 400 count: candidates ~0 per interval,
    // so the controller lowers the threshold over time.
    sys.run(hotPageProgram(16, 10, 2), "idle");
    EXPECT_LT(sys.hsccEngine()->currentThreshold(), 400u);
    EXPECT_GT(
        sys.hsccEngine()->stats().scalarValue("thresholdDrops"), 0);
}

TEST(HsccTest, StaticThresholdStaysPut)
{
    KindleSystem sys(hsccConfig(7));
    sys.run(hotPageProgram(32, 8, 6), "static");
    EXPECT_EQ(sys.hsccEngine()->currentThreshold(), 7u);
}

TEST(HsccTest, DirtyCacheCopiesGetCopiedBack)
{
    // Write to migrated pages, then displace them via pool pressure.
    KindleSystem sys(hsccConfig(2, true, 4));
    micro::ScriptBuilder b;
    const unsigned pages = 32;
    b.mmapFixed(micro::scriptBase, pages * pageSize, true);
    b.touchPages(micro::scriptBase, pages * pageSize);
    for (unsigned r = 0; r < 12; ++r) {
        for (unsigned p = 0; p < pages; ++p) {
            b.read(micro::scriptBase + p * pageSize + (r % 64) * 64);
            b.write(micro::scriptBase + p * pageSize +
                    ((r + 1) % 64) * 64);
        }
        b.compute(2000000);
    }
    b.munmap(micro::scriptBase, pages * pageSize);
    b.exit();
    sys.run(b.build(), "dirty");
    EXPECT_GT(sys.hsccEngine()->stats().scalarValue("copyBacks"), 0);
}

TEST(HsccTest, PoolThatDoesNotFitTheDramZoneIsFatal)
{
    // A 512-page pool and its 2 table frames need 514 DRAM frames.
    setErrorsThrow(true);
    KindleConfig cfg = hsccConfig(5, true, 512);
    cfg.kernel.pressure.dramZoneFrames = 300;
    try {
        KindleSystem sys(cfg);
        ADD_FAILURE() << "a 300-frame DRAM zone took a 514-frame pool";
    } catch (const SimError &e) {
        EXPECT_EQ(e.message(),
                  "hscc: a 512-page DRAM pool and its 2 mapping-table "
                  "frames do not fit in the DRAM zone's 300 free "
                  "frames");
    }
    // A zone of exactly 514 frames fits, and the pool takes them all.
    cfg.kernel.pressure.dramZoneFrames = 514;
    KindleSystem sys(cfg);
    EXPECT_EQ(sys.hsccEngine()->pool().size(), 512u);
    EXPECT_EQ(sys.kernel().dramAllocator().freeFrames(), 0u);
    setErrorsThrow(false);
}

/**
 * Cross-structure audit of one HSCC machine: the pool's slot records,
 * the mapping table in DRAM and the page table must all tell the same
 * story.
 */
struct HsccAudit : os::OsEventListener
{
    explicit HsccAudit(KindleSystem &sys) : sys(sys) {}

    /** Before a munmap: the pages are still mapped. */
    void onVmaChanging(os::Process &) override { check(); }

    void
    check()
    {
        ++stops;
        HsccEngine &engine = *sys.hsccEngine();
        const DramPool &pool = engine.pool();
        const auto &entries = pool.allEntries();

        // Slots: free <=> no home; no home is bound twice; the table
        // entry names the slot's home and frame.
        unsigned counts[3] = {0, 0, 0};
        std::set<Addr> bound;
        for (unsigned i = 0; i < entries.size(); ++i) {
            const PoolEntry &e = entries[i];
            ++counts[static_cast<unsigned>(e.state)];
            EXPECT_EQ(pool.slotOf(e.dramFrame), i);
            EXPECT_EQ(e.state == PoolState::free,
                      e.nvmHome == invalidAddr)
                << "slot " << i;
            if (e.nvmHome == invalidAddr)
                continue;
            bound.insert(e.nvmHome);
            const MapEntry m = engine.mappingTable().peek(i);
            EXPECT_EQ(m.nvmFrame, e.nvmHome) << "slot " << i;
            EXPECT_EQ(m.dramFrame, e.dramFrame) << "slot " << i;
        }
        EXPECT_EQ(bound.size(), counts[1] + counts[2]);

        // Gauges and per-state counts equal a recount.
        const auto &st = engine.pool().stats();
        EXPECT_EQ(st.gaugeValue("freePages"), counts[0]);
        EXPECT_EQ(st.gaugeValue("cleanPages"), counts[1]);
        EXPECT_EQ(st.gaugeValue("dirtyPages"), counts[2]);
        EXPECT_EQ(pool.count(PoolState::free), counts[0]);
        EXPECT_EQ(pool.count(PoolState::clean), counts[1]);
        EXPECT_EQ(pool.count(PoolState::dirty), counts[2]);

        // Page table, read functionally.
        struct Leaf
        {
            cpu::Pte pte;
            Addr entryAddr;
        };
        std::map<Addr, Leaf> leaves;
        os::Process *proc = sys.kernel().findProcess(pid);
        if (proc && proc->ptRoot != invalidAddr) {
            sys.kernel().pageTables().forEachLeafFunctional(
                proc->ptRoot, [&](Addr va, cpu::Pte pte, Addr at) {
                    leaves[va] = {pte, at};
                });
        }

        // Each bound slot's recorded mapping is a present leaf
        // remapped to the slot's frame.
        for (const PoolEntry &e : entries) {
            if (e.nvmHome == invalidAddr)
                continue;
            EXPECT_EQ(e.mapping.pid, pid);
            const auto it = leaves.find(e.mapping.vaddr);
            ASSERT_NE(it, leaves.end())
                << "bound home " << e.nvmHome << " has no leaf at "
                << e.mapping.vaddr;
            EXPECT_EQ(it->second.entryAddr, e.mapping.pteAddr);
            EXPECT_TRUE(it->second.pte.present());
            EXPECT_TRUE(it->second.pte.hsccRemapped());
            EXPECT_EQ(it->second.pte.frameAddr(), e.dramFrame);
        }

        // Each leaf: a remapped one points at a bound slot recorded
        // with this mapping; an NVM one at home is not cached.
        for (const auto &[va, leaf] : leaves) {
            if (!leaf.pte.present())
                continue;
            if (leaf.pte.hsccRemapped()) {
                const unsigned slot = pool.slotOf(leaf.pte.frameAddr());
                ASSERT_LT(slot, entries.size()) << "va " << va;
                EXPECT_NE(entries[slot].nvmHome, invalidAddr)
                    << "va " << va;
                EXPECT_EQ(entries[slot].mapping.vaddr, va);
            } else if (leaf.pte.nvmBacked()) {
                EXPECT_EQ(bound.count(leaf.pte.frameAddr()), 0u)
                    << "va " << va;
            }
        }
    }

    KindleSystem &sys;
    Pid pid = 0;
    unsigned stops = 0;
};

TEST(HsccTest, PoolTableAndPageTableAgreeMidRun)
{
    for (const bool charge_os : {true, false}) {
        SCOPED_TRACE(charge_os ? "chargeOsTime" : "hardware-only");
        KindleSystem sys(hsccConfig(2, charge_os, 6));

        // Hot read+write rounds: first over 4 pages (they fit the
        // pool), then over all 24, so dirty pages are displaced and
        // copied back; a munmap of the first 4 mid-run releases
        // cached pages.
        const unsigned pages = 24;
        micro::ScriptBuilder b;
        b.mmapFixed(micro::scriptBase, pages * pageSize, true);
        b.touchPages(micro::scriptBase, pages * pageSize);
        for (unsigned r = 0; r < 16; ++r) {
            if (r == 8)
                b.munmap(micro::scriptBase, 4 * pageSize);
            for (unsigned p = r < 8 ? 0 : 4; p < (r < 4 ? 4 : pages);
                 ++p) {
                b.read(micro::scriptBase + p * pageSize + (r % 64) * 64);
                b.write(micro::scriptBase + p * pageSize +
                        ((r + 1) % 64) * 64);
            }
            // Short compute ops, so audits land between migrations.
            for (int c = 0; c < 4; ++c)
                b.compute(500000);
        }
        b.munmap(micro::scriptBase + 4 * pageSize,
                 (pages - 4) * pageSize);
        b.exit();

        HsccAudit audit(sys);
        sys.kernel().addListener(&audit);
        sim::PeriodicEvent stop("hsccAudit", sim::Event::Priority::deflt,
                                sys.kernel().simulation(),
                                [&] { audit.check(); });
        stop.start(oneMs / 4);
        audit.pid = sys.kernel().spawn(b.build(), "audit");
        sys.runAll();
        stop.stop();
        sys.kernel().removeListener(&audit);
        audit.check();  // after the final munmap: every slot released

        const auto &st = sys.hsccEngine()->stats();
        EXPECT_GT(st.scalarValue("copyBacks"), 0);
        EXPECT_GT(st.scalarValue("reverts"), 0);
        EXPECT_GE(audit.stops, 20u);
        EXPECT_EQ(sys.hsccEngine()->pool().count(PoolState::free), 6u);
    }
}

} // namespace
} // namespace kindle::hscc
