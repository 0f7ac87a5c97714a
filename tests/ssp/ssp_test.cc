#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "kindle/kindle.hh"
#include "kindle/microbench.hh"

namespace kindle::ssp
{
namespace
{

KindleConfig
sspConfig(Tick interval = 5 * oneMs)
{
    KindleConfig cfg;
    cfg.memory.dramBytes = 256 * oneMiB;
    cfg.memory.nvmBytes = 512 * oneMiB;
    SspParams p;
    p.consistencyInterval = interval;
    cfg.ssp = p;
    return cfg;
}

/** NVM writes inside a FASE, with compute padding for intervals. */
std::unique_ptr<micro::ScriptStream>
faseProgram(unsigned pages, unsigned rounds,
            Cycles pad_cycles = 1000000)
{
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, pages * pageSize, true);
    b.touchPages(micro::scriptBase, pages * pageSize);
    b.faseStart();
    for (unsigned r = 0; r < rounds; ++r) {
        for (unsigned p = 0; p < pages; ++p)
            b.write(micro::scriptBase + p * pageSize + (r % 64) * 64);
        b.compute(pad_cycles);
    }
    b.faseEnd();
    b.munmap(micro::scriptBase, pages * pageSize);
    b.exit();
    return b.build();
}

TEST(SspTest, ShadowPagesAllocatedForTrackedPages)
{
    KindleSystem sys(sspConfig());
    sys.run(faseProgram(16, 2), "fase");
    EXPECT_GE(sys.sspEngine()->shadowPagesAllocated(), 16u);
}

TEST(SspTest, NoTrackingOutsideFase)
{
    KindleSystem sys(sspConfig());
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, 16 * pageSize, true);
    b.touchPages(micro::scriptBase, 16 * pageSize);
    b.munmap(micro::scriptBase, 16 * pageSize);
    b.exit();
    sys.run(b.build(), "nofase");
    EXPECT_EQ(sys.sspEngine()->shadowPagesAllocated(), 0u);
}

TEST(SspTest, DramPagesAreNotTracked)
{
    KindleSystem sys(sspConfig());
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, 16 * pageSize, false);  // DRAM
    b.faseStart();
    b.touchPages(micro::scriptBase, 16 * pageSize);
    b.faseEnd();
    b.exit();
    sys.run(b.build(), "dram-fase");
    EXPECT_EQ(sys.sspEngine()->shadowPagesAllocated(), 0u);
}

TEST(SspTest, IntervalCommitsFlushDirtyLines)
{
    KindleSystem sys(sspConfig(oneMs));
    sys.run(faseProgram(8, 20), "fase");
    const auto &st = sys.sspEngine()->stats();
    EXPECT_GT(st.scalarValue("intervalCommits"), 1);
    EXPECT_GT(st.scalarValue("linesFlushed"), 0);
}

TEST(SspTest, FaseEndForcesCommit)
{
    KindleSystem sys(sspConfig(oneSec));  // interval never fires
    sys.run(faseProgram(4, 1, 1000), "quick");
    EXPECT_GE(sys.sspEngine()->stats().scalarValue("intervalCommits"),
              1);
}

TEST(SspTest, MsrsCarryTrackedRangeDuringFase)
{
    KindleSystem sys(sspConfig(oneSec));
    // Build a program that parks inside the FASE long enough for us
    // to never observe it (the MSR values persist after faseStart in
    // engine state until faseEnd disarms).  Instead check the SSP
    // cache base MSR, programmed at start().
    EXPECT_EQ(sys.core(0).msrs().read(cpu::MsrId::sspCacheBase),
              sys.sspEngine()->cache().base());
}

TEST(SspTest, ConsolidationMergesEvictedEntries)
{
    KindleConfig cfg = sspConfig(oneMs);
    // Tiny TLB so FASE pages get evicted with pending bits.
    cfg.core.tlb.l1Entries = 4;
    cfg.core.tlb.l2Entries = 24;
    KindleSystem sys(cfg);
    sys.run(faseProgram(64, 10), "thrash");
    const auto &st = sys.sspEngine()->stats();
    EXPECT_GT(st.scalarValue("bitmapSpills"), 0);
    EXPECT_GT(st.scalarValue("consolidations"), 0);
    EXPECT_GT(st.scalarValue("pagesConsolidated"), 0);
}

TEST(SspTest, WiderIntervalReducesOverhead)
{
    // The paper's Figure 5 trend: 10 ms interval costs less than
    // 1 ms for the same work.
    auto run_with = [](Tick interval) {
        KindleSystem sys(sspConfig(interval));
        return sys.run(faseProgram(32, 40), "fase");
    };
    const Tick t_1ms = run_with(oneMs);
    const Tick t_10ms = run_with(10 * oneMs);
    EXPECT_LT(t_10ms, t_1ms);
}

TEST(SspTest, ShadowPagesFreedOnUnmap)
{
    KindleSystem sys(sspConfig());
    const auto before =
        sys.kernel().nvmAllocator().allocatedFrames();
    sys.run(faseProgram(16, 2), "fase");
    // Everything (data + shadows) released at munmap/exit.
    EXPECT_EQ(sys.kernel().nvmAllocator().allocatedFrames(), before);
}

TEST(SspTest, CommitRecordIsDurable)
{
    KindleSystem sys(sspConfig(oneMs));
    sys.run(faseProgram(8, 10), "fase");
    const os::NvmLayout &layout = sys.kernel().nvmLayout();
    const Addr commit_addr =
        layout.sspCache + layout.sspCacheBytes - lineSize;
    sys.crash();
    std::uint64_t seq = 0;
    sys.memory().readNvmDurable(commit_addr, &seq, 8);
    EXPECT_GT(seq, 0u);
}

/** Runs a hook once, as the program hands out its faseEnd op. */
class HookAtFaseEnd : public cpu::OpStream
{
  public:
    HookAtFaseEnd(std::unique_ptr<cpu::OpStream> inner_arg,
                  std::function<void()> hook_arg)
        : inner(std::move(inner_arg)), hook(std::move(hook_arg))
    {}

    bool
    next(cpu::Op &op) override
    {
        if (!inner->next(op))
            return false;
        if (op.kind == cpu::Op::Kind::faseEnd && hook)
            std::exchange(hook, nullptr)();
        return true;
    }

    void
    onSyscallResult(std::uint64_t value) override
    {
        inner->onSyscallResult(value);
    }

  private:
    std::unique_ptr<cpu::OpStream> inner;
    std::function<void()> hook;
};

/**
 * @p pages NVM pages faulted in address order, then written once each
 * inside a FASE in the order @p order gives, so the SSP engine starts
 * tracking them in that order rather than in frame order.
 */
std::unique_ptr<micro::ScriptStream>
trackInOrder(unsigned pages, const std::function<unsigned(unsigned)> &order)
{
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, pages * pageSize, true);
    b.touchPages(micro::scriptBase, pages * pageSize);
    b.faseStart();
    for (unsigned i = 0; i < pages; ++i)
        b.write(micro::scriptBase + order(i) * pageSize);
    b.faseEnd();
    b.munmap(micro::scriptBase, pages * pageSize);
    b.exit();
    return b.build();
}

constexpr unsigned orderPages = 1024;

/** A fixed shuffle of [0, orderPages): 389 is coprime to it. */
unsigned
shuffled(unsigned i)
{
    return (i * 389u) % orderPages;
}

double
pcmStat(KindleSystem &sys, const char *name)
{
    return sys.memory().nvmCtrl().device().stats().scalarValue(name);
}

TEST(SspTest, IntervalCommitInspectsInFrameOrder)
{
    KindleSystem sys(sspConfig(oneSec));
    SspEngine &engine = *sys.sspEngine();
    double misses = -1;
    double inspected = 0;
    std::set<Addr> rows;
    auto hook = [&] {
        // The first commit spills every bitmap and writes back the
        // metadata, so the second one's only device traffic is the
        // inspection's uncached reads, plus the commit record.
        engine.commitInterval();
        const double misses0 = pcmStat(sys, "rowMisses");
        const double inspected0 =
            engine.stats().scalarValue("metadataInspections");
        engine.commitInterval();
        misses = pcmStat(sys, "rowMisses") - misses0;
        inspected =
            engine.stats().scalarValue("metadataInspections") - inspected0;
        const std::uint64_t row_bytes =
            sys.memory().nvmCtrl().device().params().rowBytes;
        engine.cache().forEachTracked([&](Addr frame) {
            rows.insert(engine.cache().entryAddr(frame) / row_bytes);
        });
    };
    sys.run(std::make_unique<HookAtFaseEnd>(
                trackInOrder(orderPages, shuffled), hook),
            "shuffled");

    EXPECT_EQ(inspected, orderPages);
    ASSERT_GT(rows.size(), 8u) << "entries must span more rows than banks";
    // In frame order each metadata row is streamed once, start to end:
    // one row miss per row, and one for the commit record.
    EXPECT_LE(misses, static_cast<double>(rows.size() + 1));
}

/** What one consolidation pass cost, from a hook at the FASE's end. */
struct ConsolidationCost
{
    Tick ticks = 0;
    double rowHits = 0;
    double rowMisses = 0;
    double merged = 0;
};

/**
 * Mark every tracked page TLB-evicted in the order @p order gives,
 * start the memory system cold, and run one consolidation pass.
 */
ConsolidationCost
consolidateAfterMarking(const std::function<unsigned(unsigned)> &order)
{
    KindleSystem sys(sspConfig(oneSec));
    SspEngine &engine = *sys.sspEngine();
    ConsolidationCost cost;
    auto hook = [&] {
        engine.commitInterval();
        std::vector<Addr> frames;
        engine.cache().forEachTracked(
            [&](Addr frame) { frames.push_back(frame); });
        for (unsigned i = 0; i < frames.size(); ++i)
            engine.cache().mergeBits(frames[order(i)], 1, true);
        // Write the entries back and forget every cache line and open
        // row, so only the walk order can tell the two runs apart.
        sys.caches().flushAll(sys.now());
        sys.caches().invalidateAll();
        sys.memory().nvmCtrl().reset();
        sys.memory().dramCtrl().reset();

        const Tick t0 = sys.now();
        const double hits0 = pcmStat(sys, "rowHits");
        const double misses0 = pcmStat(sys, "rowMisses");
        const double merged0 =
            engine.stats().scalarValue("pagesConsolidated");
        engine.consolidate();
        cost.ticks = sys.now() - t0;
        cost.rowHits = pcmStat(sys, "rowHits") - hits0;
        cost.rowMisses = pcmStat(sys, "rowMisses") - misses0;
        cost.merged =
            engine.stats().scalarValue("pagesConsolidated") - merged0;
    };
    sys.run(std::make_unique<HookAtFaseEnd>(
                trackInOrder(orderPages, [](unsigned i) { return i; }),
                hook),
            "consolidate");
    return cost;
}

TEST(SspTest, ConsolidationMergesInFrameOrder)
{
    const ConsolidationCost ascending =
        consolidateAfterMarking([](unsigned i) { return i; });
    const ConsolidationCost scrambled = consolidateAfterMarking(shuffled);
    EXPECT_EQ(ascending.merged, orderPages);
    EXPECT_EQ(scrambled.merged, orderPages);
    EXPECT_EQ(ascending.ticks, scrambled.ticks);
    EXPECT_EQ(ascending.rowHits, scrambled.rowHits);
    EXPECT_EQ(ascending.rowMisses, scrambled.rowMisses);
}

} // namespace
} // namespace kindle::ssp
