/**
 * @file
 * Determinism guarantees: identical configurations must produce
 * identical simulations, tick for tick — the property that makes
 * comparative studies on Kindle trustworthy.
 */

#include <gtest/gtest.h>


#include "kindle/kindle.hh"
#include "kindle/microbench.hh"
#include "prep/replay.hh"
#include "prep/workloads.hh"

namespace kindle
{
namespace
{

Tick
runMicro()
{
    KindleConfig cfg;
    cfg.memory.dramBytes = 256 * oneMiB;
    cfg.memory.nvmBytes = 256 * oneMiB;
    cfg.persistence = persist::PersistParams{
        persist::PtScheme::rebuild, oneMs};
    KindleSystem sys(cfg);
    return sys.run(micro::seqAllocTouch(4 * oneMiB), "det");
}

TEST(DeterminismTest, MicrobenchRunsAreTickIdentical)
{
    EXPECT_EQ(runMicro(), runMicro());
}

Tick
runTraceWithEngines()
{
    KindleConfig cfg;
    cfg.memory.dramBytes = 256 * oneMiB;
    cfg.memory.nvmBytes = 512 * oneMiB;
    hscc::HsccParams hp;
    hp.migrationInterval = oneMs;
    hp.fetchThreshold = 3;
    cfg.hscc = hp;
    KindleSystem sys(cfg);

    prep::WorkloadParams wp;
    wp.ops = 30000;
    wp.scaleDown = 64;
    auto trace = prep::makeWorkload(prep::Benchmark::g500Sssp, wp);
    auto program = std::make_unique<prep::ReplayStream>(
        *trace, prep::ReplayConfig{});
    return sys.run(std::move(program), "det");
}

TEST(DeterminismTest, TraceRunsWithEnginesAreTickIdentical)
{
    EXPECT_EQ(runTraceWithEngines(), runTraceWithEngines());
}

TEST(DeterminismTest, StatsDumpsAreByteIdentical)
{
    // Snapshot equality compares every stat at full precision.
    auto dump = [] {
        KindleConfig cfg;
        cfg.memory.dramBytes = 128 * oneMiB;
        cfg.memory.nvmBytes = 128 * oneMiB;
        ssp::SspParams sp;
        sp.consistencyInterval = oneMs;
        cfg.ssp = sp;
        KindleSystem sys(cfg);
        micro::ScriptBuilder b;
        b.mmapFixed(micro::scriptBase, 32 * pageSize, true);
        b.touchPages(micro::scriptBase, 32 * pageSize);
        b.faseStart();
        for (int i = 0; i < 10; ++i) {
            b.write(micro::scriptBase + (i % 32) * pageSize);
            b.compute(500000);
        }
        b.faseEnd();
        b.exit();
        sys.run(b.build(), "det");
        return sys.snapshotStats();
    };
    const statistics::StatSnapshot first = dump();
    EXPECT_FALSE(first.entries().empty());
    EXPECT_EQ(first.entries(), dump().entries());
}

TEST(DeterminismTest, CrashRecoveryIsDeterministic)
{
    auto recovered_ticks = [] {
        KindleConfig cfg;
        cfg.memory.dramBytes = 128 * oneMiB;
        cfg.memory.nvmBytes = 256 * oneMiB;
        cfg.persistence = persist::PersistParams{
            persist::PtScheme::rebuild, oneMs};
        KindleSystem sys(cfg);
        os::Process &proc = sys.kernel().spawnShell("p", 0);
        const Addr a = sys.kernel().sysMmap(proc, 0, 16 * pageSize,
                                            cpu::mapNvm);
        sys.core(0).setContext(proc.pid, proc.ptRoot);
        for (unsigned i = 0; i < 16; ++i) {
            const Addr f = sys.kernel().nvmAllocator().alloc();
            sys.kernel().pageTables().map(
                proc.ptRoot, a + Addr(i) * pageSize, f, true, true);
        }
        sys.persistence()->checkpointNow();
        sys.crash();
        const auto report = sys.reboot();
        return report.recoveryTicks;
    };
    EXPECT_EQ(recovered_ticks(), recovered_ticks());
}

} // namespace
} // namespace kindle
