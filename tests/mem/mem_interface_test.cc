#include <gtest/gtest.h>

#include <vector>

#include "mem/mem_interface.hh"

namespace kindle::mem
{
namespace
{

AddrRange
testRange()
{
    return AddrRange(0, 256 * oneMiB);
}

TEST(MemInterfaceTest, RowHitFasterThanRowMiss)
{
    MemInterface dram(ddr4_2400Params(), testRange());
    // First access opens the row (miss).
    const Tick t1 = dram.access(MemCmd::read, 0x0, 0);
    // Same row, immediately after: hit, and only bus/bank constrained.
    const Tick t2 = dram.access(MemCmd::read, 64, t1) - t1;
    EXPECT_GT(t1, t2);
}

TEST(MemInterfaceTest, NvmReadSlowerThanDram)
{
    MemInterface dram(ddr4_2400Params(), testRange());
    MemInterface nvm(pcmParams(), testRange());
    const Tick d = dram.access(MemCmd::read, 0x10000, 0);
    const Tick n = nvm.access(MemCmd::read, 0x10000, 0);
    EXPECT_GT(n, d);
}

TEST(MemInterfaceTest, NvmWriteSlowerThanNvmRead)
{
    MemInterface nvm(pcmParams(), testRange());
    const Tick r = nvm.access(MemCmd::read, 0x0, 0);
    MemInterface nvm2(pcmParams(), testRange());
    const Tick w = nvm2.access(MemCmd::write, 0x0, 0);
    EXPECT_GT(w, r);
}

TEST(MemInterfaceTest, BankConflictSerializes)
{
    MemInterface dram(ddr4_2400Params(), testRange());
    const auto params = ddr4_2400Params();
    // Two different rows on the same bank: second access waits.
    const Addr row_a = 0;
    const Addr row_b = params.rowBytes * params.banks;  // same bank
    const Tick t1 = dram.access(MemCmd::read, row_a, 0);
    const Tick t2 = dram.access(MemCmd::read, row_b, 0);
    EXPECT_GE(t2, t1 + params.readRowMiss);
}

TEST(MemInterfaceTest, DifferentBanksOverlap)
{
    MemInterface dram(ddr4_2400Params(), testRange());
    const auto params = ddr4_2400Params();
    const Tick t1 = dram.access(MemCmd::read, 0, 0);
    // Next row lands on the next bank; only the shared bus serializes.
    const Tick t2 = dram.access(MemCmd::read, params.rowBytes, 0);
    EXPECT_LT(t2, t1 + params.readRowMiss);
}

TEST(MemInterfaceTest, BulkCheaperThanPerLine)
{
    const std::uint64_t bytes = 64 * oneKiB;
    MemInterface a(pcmParams(), testRange());
    Tick per_line_done = 0;
    for (std::uint64_t off = 0; off < bytes; off += lineSize)
        per_line_done = a.access(MemCmd::write, off, per_line_done);

    MemInterface b(pcmParams(), testRange());
    const Tick bulk_done = b.bulkAccess(MemCmd::bulkWrite, 0, bytes, 0);
    EXPECT_LT(bulk_done, per_line_done);
}

TEST(MemInterfaceTest, StatsAccumulate)
{
    MemInterface dram(ddr4_2400Params(), testRange());
    dram.access(MemCmd::read, 0, 0);
    dram.access(MemCmd::write, 64, 0);
    dram.bulkAccess(MemCmd::bulkRead, 0x10000, 4096, 0);
    EXPECT_EQ(dram.stats().scalarValue("readReqs"), 2);  // read + bulk
    EXPECT_EQ(dram.stats().scalarValue("writeReqs"), 1);
    EXPECT_GE(dram.stats().scalarValue("bytes"), 4096 + 128);
}

TEST(MemInterfaceTest, ResetForgetsOpenRows)
{
    MemInterface dram(ddr4_2400Params(), testRange());
    const Tick miss1 = dram.access(MemCmd::read, 0, 0);
    dram.reset();
    // Same address misses again after reset (row closed).
    const Tick miss2 = dram.access(MemCmd::read, 0, 0);
    EXPECT_EQ(miss1, miss2);
}

TEST(MemInterfaceTest, SixBanksInterleaveRowsModuloBankCount)
{
    // A bank count that is not a power of two: row r lives in bank
    // r % 6, so rows 0, 6 and 12 evict each other's open row while
    // rows 1 and 5 keep theirs.
    MemTimingParams p = ddr4_2400Params();
    p.banks = 6;
    MemInterface dram(p, testRange());
    struct Step
    {
        std::uint64_t row;
        bool hit;
    };
    const std::vector<Step> steps = {
        {0, false},  {1, false}, {5, false}, {0, true},
        {6, false},  {1, true},  {5, true},  {0, false},
        {12, false}, {7, false}, {1, false}, {11, false},
        {5, false},  {4, false}, {0, false}, {4, true},
    };
    // Each access starts on an idle device, so its latency is exactly
    // the row-hit or row-miss service time.
    Tick now = 0;
    double hits = 0;
    for (std::size_t i = 0; i < steps.size(); ++i) {
        const Addr addr = steps[i].row * p.rowBytes + (i % 8) * lineSize;
        const Tick done = dram.access(MemCmd::read, addr, now);
        EXPECT_EQ(done - now, steps[i].hit ? p.readRowHit : p.readRowMiss)
            << "step " << i << ", row " << steps[i].row;
        hits += steps[i].hit;
        now = done + oneUs;
    }
    EXPECT_EQ(dram.stats().scalarValue("rowHits"), hits);
    EXPECT_EQ(dram.stats().scalarValue("rowMisses"), steps.size() - hits);

    // A streaming transfer opens its row in that row's bank: row 13
    // is bank 1's, so row 13 then hits and row 1 misses.
    now = dram.bulkAccess(MemCmd::bulkRead, 13 * p.rowBytes, pageSize,
                          now) + oneUs;
    const Tick hit = dram.access(MemCmd::read, 13 * p.rowBytes + 64, now);
    EXPECT_EQ(hit - now, p.readRowHit);
    now = hit + oneUs;
    EXPECT_EQ(dram.access(MemCmd::read, p.rowBytes, now) - now,
              p.readRowMiss);

    // Rows 2 and 8 share bank 2, so two accesses issued together
    // serialize on it; rows 3 and 10 (banks 3 and 4) overlap up to
    // the shared bus.
    now += oneUs * 10;
    const Tick a = dram.access(MemCmd::read, 2 * p.rowBytes, now);
    EXPECT_GE(dram.access(MemCmd::read, 8 * p.rowBytes, now),
              a + p.readRowMiss);
    now = a + oneUs * 10;
    const Tick b = dram.access(MemCmd::read, 3 * p.rowBytes, now);
    EXPECT_LT(dram.access(MemCmd::read, 10 * p.rowBytes, now),
              b + p.readRowMiss);
}

class BulkSizeParam : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(BulkSizeParam, BulkCostScalesWithSize)
{
    MemInterface nvm(pcmParams(), testRange());
    const std::uint64_t bytes = GetParam();
    const Tick small = nvm.bulkAccess(MemCmd::bulkWrite, 0, bytes, 0);
    MemInterface nvm2(pcmParams(), testRange());
    const Tick big =
        nvm2.bulkAccess(MemCmd::bulkWrite, 0, bytes * 4, 0);
    EXPECT_GT(big, small);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BulkSizeParam,
                         ::testing::Values(4096, 65536, 1048576));

} // namespace
} // namespace kindle::mem
