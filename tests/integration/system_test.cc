/**
 * @file
 * End-to-end smoke tests: the full system boots, runs programs, and
 * the basic hybrid-memory behaviours hold.
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

KindleConfig
smallConfig()
{
    KindleConfig cfg;
    cfg.memory.dramBytes = 256 * oneMiB;
    cfg.memory.nvmBytes = 512 * oneMiB;
    return cfg;
}

TEST(SystemTest, BootsAndRunsTrivialProgram)
{
    KindleSystem sys(smallConfig());
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, 16 * pageSize, /*nvm=*/true);
    b.touchPages(micro::scriptBase, 16 * pageSize);
    b.readPages(micro::scriptBase, 16 * pageSize);
    b.munmap(micro::scriptBase, 16 * pageSize);
    b.exit();
    const Tick elapsed = sys.run(b.build(), "trivial");
    EXPECT_GT(elapsed, 0u);
    // All processes exited; frames returned.
    EXPECT_EQ(sys.kernel().nvmAllocator().allocatedFrames(), 0u);
}

TEST(SystemTest, NvmAndDramAllocationsUseTheRightZones)
{
    KindleSystem sys(smallConfig());
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, 8 * pageSize, /*nvm=*/true);
    b.mmapFixed(micro::scriptBase + oneGiB, 8 * pageSize,
                /*nvm=*/false);
    b.touchPages(micro::scriptBase, 8 * pageSize);
    b.touchPages(micro::scriptBase + oneGiB, 8 * pageSize);
    b.exit();

    auto &kernel = sys.kernel();
    const auto nvm_before = kernel.nvmAllocator().allocatedFrames();
    const auto dram_before = kernel.dramAllocator().allocatedFrames();
    sys.run(b.build(), "zones");
    // exit released everything again; the counters moved through the
    // run (stats show the alloc traffic).
    EXPECT_EQ(kernel.nvmAllocator().allocatedFrames(), nvm_before);
    EXPECT_GE(kernel.nvmAllocator().stats().scalarValue("allocs"), 8);
    EXPECT_GE(kernel.dramAllocator().stats().scalarValue("allocs"), 8);
    (void)dram_before;
}

TEST(SystemTest, NvmAccessesAreSlowerThanDram)
{
    // Two runs with identical access patterns, one on NVM and one on
    // DRAM; the NVM run must take longer end to end.
    auto run_one = [&](bool nvm) {
        KindleSystem sys(smallConfig());
        micro::ScriptBuilder b;
        const std::uint64_t bytes = 16 * oneMiB;
        b.mmapFixed(micro::scriptBase, bytes, nvm);
        b.touchPages(micro::scriptBase, bytes);
        b.touchPages(micro::scriptBase, bytes);
        b.munmap(micro::scriptBase, bytes);
        b.exit();
        return sys.run(b.build(), nvm ? "nvm" : "dram");
    };
    const Tick nvm_time = run_one(true);
    const Tick dram_time = run_one(false);
    EXPECT_GT(nvm_time, dram_time);
}

TEST(SystemTest, ReplayedWorkloadRunsToCompletion)
{
    KindleConfig cfg = smallConfig();
    KindleSystem sys(cfg);

    prep::WorkloadParams wp;
    wp.ops = 20000;
    wp.scaleDown = 64;
    auto trace = prep::makeWorkload(prep::Benchmark::ycsbMem, wp);
    auto program = std::make_unique<prep::ReplayStream>(
        *trace, prep::ReplayConfig{});

    // The process (and the program it owns) is reaped once it exits,
    // so count the replayed records as the core's loads and stores.
    const Tick elapsed = sys.run(std::move(program), "ycsb");
    EXPECT_GT(elapsed, 0u);
    EXPECT_EQ(sys.core(0).stats().scalarValue("memOps"), wp.ops);
}

TEST(SystemTest, MultipleProcessesShareTheMachine)
{
    KindleSystem sys(smallConfig());
    auto make_prog = [](Addr base) {
        micro::ScriptBuilder b;
        b.mmapFixed(base, 64 * pageSize, true);
        b.touchPages(base, 64 * pageSize);
        for (int round = 0; round < 20; ++round)
            b.readPages(base, 64 * pageSize);
        b.munmap(base, 64 * pageSize);
        b.exit();
        return b.build();
    };
    sys.kernel().spawn(make_prog(micro::scriptBase), "p1");
    sys.kernel().spawn(make_prog(micro::scriptBase), "p2");
    sys.runAll();
    EXPECT_GE(sys.kernel().stats().scalarValue("contextSwitches"), 2);
    for (const auto &p : sys.kernel().processes())
        EXPECT_EQ(p->state, os::ProcState::zombie);
}

TEST(SystemTest, StatsDumpProducesOutput)
{
    KindleSystem sys(smallConfig());
    sys.run(micro::seqAllocTouch(oneMiB), "dump");
    const statistics::StatSnapshot snap = sys.snapshotStats();
    EXPECT_GT(snap.get("kernel.pageFaults"), 0);
    EXPECT_GT(snap.get("hybridMem.PCMCtrl.PCM.serviceTicks"), 0);
}

} // namespace
} // namespace kindle
