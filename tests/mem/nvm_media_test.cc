/**
 * @file
 * NVM media model unit tests: SECDED read semantics, drift-vs-stuck
 * fault lifecycle, write-endurance exhaustion, and the HybridMemory
 * plumbing (including media state surviving a power loss).
 */

#include <cstring>

#include <gtest/gtest.h>

#include "mem/hybrid_memory.hh"
#include "mem/nvm_media.hh"

namespace kindle::mem
{
namespace
{

constexpr Addr nvmBase = 64 * oneMiB;

AddrRange
nvmRange()
{
    return {nvmBase, nvmBase + 64 * oneMiB};
}

NvmMediaModel
cleanModel()
{
    fault::MediaFaultPlan plan;
    plan.seed = 3;
    return NvmMediaModel(nvmRange(), plan);
}

TEST(NvmMediaModel, SingleBitIsCorrectedOnRead)
{
    NvmMediaModel media = cleanModel();
    const Addr line = nvmBase + 4 * lineSize;
    media.injectError(line, 1);
    EXPECT_EQ(media.health(line), LineHealth::correctable);

    // ECC hides the flip: the delivered bytes stay pristine and the
    // correction is counted.
    std::uint8_t buf[lineSize] = {};
    media.filterRead(line, buf, lineSize);
    for (const std::uint8_t b : buf)
        EXPECT_EQ(b, 0u);
    EXPECT_EQ(media.stats().scalarValue("demandCorrections"), 1);
}

TEST(NvmMediaModel, DoubleBitCorruptsDeliveredBytes)
{
    NvmMediaModel media = cleanModel();
    const Addr line = nvmBase + 9 * lineSize;
    media.injectError(line, 2);
    EXPECT_EQ(media.health(line), LineHealth::uncorrectable);

    std::uint8_t buf[lineSize] = {};
    media.filterRead(line, buf, lineSize);
    unsigned wrong_bits = 0;
    for (const std::uint8_t b : buf)
        wrong_bits += static_cast<unsigned>(__builtin_popcount(b));
    EXPECT_EQ(wrong_bits, 2u);
    EXPECT_EQ(media.stats().scalarValue("uncorrectableReads"), 1);
}

TEST(NvmMediaModel, PartialLineReadSeesOnlyCoveredDamage)
{
    NvmMediaModel media = cleanModel();
    const Addr line = nvmBase;
    media.injectError(line, 2);

    // An 8-byte window of an uncorrectable line flips at most the
    // error bits that land inside the window — never bytes outside.
    std::uint8_t buf[8] = {};
    media.filterRead(line + 16, buf, sizeof(buf));
    unsigned wrong_bits = 0;
    for (const std::uint8_t b : buf)
        wrong_bits += static_cast<unsigned>(__builtin_popcount(b));
    EXPECT_LE(wrong_bits, 2u);
}

TEST(NvmMediaModel, RewriteClearsTransientKeepsStuck)
{
    NvmMediaModel media = cleanModel();
    const Addr drifted = nvmBase + 2 * lineSize;
    const Addr worn = nvmBase + 3 * lineSize;
    media.injectError(drifted, 1, /*sticky=*/false);
    media.injectError(worn, 1, /*sticky=*/true);

    EXPECT_EQ(media.scrubRewrite(drifted), 0u);  // healed
    EXPECT_EQ(media.scrubRewrite(worn), 1u);     // still afflicted
    EXPECT_EQ(media.health(drifted), LineHealth::clean);
    EXPECT_EQ(media.health(worn), LineHealth::correctable);
}

TEST(NvmMediaModel, RateOneInjectsOnEveryWrite)
{
    fault::MediaFaultPlan plan;
    plan.bitFlipRate = 1.0;
    plan.seed = 11;
    NvmMediaModel media(nvmRange(), plan);

    const Addr line = nvmBase + 7 * lineSize;
    media.onLineWrite(line);
    EXPECT_GE(media.errorBits(line), 1u);
    EXPECT_EQ(media.stats().scalarValue("transientFlips"), 1);
}

TEST(NvmMediaModel, EnduranceExhaustionDevelopsStuckBit)
{
    fault::MediaFaultPlan plan;
    plan.writeEndurance = 4;
    plan.seed = 5;
    NvmMediaModel media(nvmRange(), plan);

    const Addr frame = nvmBase + 6 * pageSize;
    for (int i = 0; i < 4; ++i) {
        media.onLineWrite(frame + Addr(i) * lineSize);
        EXPECT_TRUE(media.takeExhaustedFrames().empty());
    }

    // The write that crosses the budget sticks a cell and reports the
    // frame — exactly once.
    media.onLineWrite(frame + 4 * lineSize);
    const auto worn_out = media.takeExhaustedFrames();
    ASSERT_EQ(worn_out.size(), 1u);
    EXPECT_EQ(worn_out[0], frame);
    EXPECT_TRUE(media.takeExhaustedFrames().empty());
    EXPECT_EQ(media.stats().scalarValue("stuckBits"), 1);

    // Wear never heals: rewriting the stuck line keeps its error bit.
    media.onLineWrite(frame + 4 * lineSize);
    std::uint64_t afflicted = 0;
    media.forEachFaultyLine(
        {frame, frame + pageSize},
        [&](Addr, unsigned bits) { afflicted += bits; });
    EXPECT_GE(afflicted, 1u);

    // Every later write is past the budget too, but the frame was
    // already reported: nothing new to retire, the count stays 1.
    for (int i = 0; i < 8; ++i) {
        media.onLineWrite(frame + Addr(i) * lineSize);
        EXPECT_TRUE(media.takeExhaustedFrames().empty()) << i;
    }
    EXPECT_EQ(media.stats().scalarValue("framesExhausted"), 1);
}

TEST(NvmMediaModel, TargetedPlanFaultsAppliedAtConstruction)
{
    fault::MediaFaultPlan plan;
    plan.faults.push_back({/*frame=*/2, /*line=*/5, /*bits=*/2,
                           /*sticky=*/true});
    NvmMediaModel media(nvmRange(), plan);
    const Addr line = nvmBase + 2 * pageSize + 5 * lineSize;
    EXPECT_EQ(media.health(line), LineHealth::uncorrectable);
}

TEST(NvmMediaModel, HybridMemoryDeliversUncorrectableDamage)
{
    HybridMemoryParams p;
    p.dramBytes = 64 * oneMiB;
    p.nvmBytes = 64 * oneMiB;
    p.media.faults.push_back({/*frame=*/1, /*line=*/0, /*bits=*/2,
                              /*sticky=*/true});
    HybridMemory mem(p);
    ASSERT_NE(mem.media(), nullptr);

    const Addr good = nvmBase + 3 * pageSize;
    const Addr bad = nvmBase + pageSize;
    std::uint8_t pattern[lineSize];
    for (std::uint64_t i = 0; i < lineSize; ++i)
        pattern[i] = static_cast<std::uint8_t>(i * 7 + 1);
    mem.writeDataDurable(good, pattern, lineSize);
    mem.writeDataDurable(bad, pattern, lineSize);

    std::uint8_t buf[lineSize] = {};
    mem.readData(good, buf, lineSize);
    EXPECT_EQ(std::memcmp(buf, pattern, lineSize), 0);
    mem.readData(bad, buf, lineSize);
    EXPECT_NE(std::memcmp(buf, pattern, lineSize), 0);
}

TEST(NvmMediaModel, MediaStateSurvivesPowerLoss)
{
    HybridMemoryParams p;
    p.dramBytes = 64 * oneMiB;
    p.nvmBytes = 64 * oneMiB;
    p.media.faults.push_back({/*frame=*/0, /*line=*/0, /*bits=*/2,
                              /*sticky=*/true});
    HybridMemory mem(p);
    const Addr line = nvmBase;
    ASSERT_EQ(mem.media()->health(line), LineHealth::uncorrectable);

    mem.drainWrites(maxTick);
    mem.crash(0, {});

    // The faults are in the cells, not in any volatile buffer.
    EXPECT_EQ(mem.media()->health(line), LineHealth::uncorrectable);
    std::uint8_t buf[lineSize] = {};
    mem.readData(line, buf, lineSize);
    unsigned wrong_bits = 0;
    for (const std::uint8_t b : buf)
        wrong_bits += static_cast<unsigned>(__builtin_popcount(b));
    EXPECT_EQ(wrong_bits, 2u);
}

} // namespace
} // namespace kindle::mem
