#include <gtest/gtest.h>

#include "kindle/kindle.hh"
#include "kindle/microbench.hh"

namespace kindle::persist
{
namespace
{

KindleConfig
configWith(PtScheme scheme, Tick interval = 10 * oneMs)
{
    KindleConfig cfg;
    cfg.memory.dramBytes = 256 * oneMiB;
    cfg.memory.nvmBytes = 512 * oneMiB;
    cfg.persistence = PersistParams{scheme, interval};
    return cfg;
}

TEST(CheckpointTest, PeriodicCheckpointsFire)
{
    KindleSystem sys(configWith(PtScheme::rebuild, oneMs));
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, 64 * pageSize, true);
    b.touchPages(micro::scriptBase, 64 * pageSize);
    for (int i = 0; i < 50; ++i)
        b.compute(1000000);  // ~0.3 ms each
    b.exit();
    sys.run(b.build(), "worker");
    EXPECT_GT(sys.persistence()->checkpointsTaken(), 5u);
}

TEST(CheckpointTest, RebuildSchemeWritesMappingEntries)
{
    KindleSystem sys(configWith(PtScheme::rebuild, oneMs));
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, 64 * pageSize, true);
    b.touchPages(micro::scriptBase, 64 * pageSize);
    for (int i = 0; i < 30; ++i)
        b.compute(1000000);
    b.exit();
    sys.run(b.build(), "worker");
    EXPECT_GT(sys.persistence()->stats().scalarValue("mappingEntries"),
              63);
}

TEST(CheckpointTest, PersistentSchemeWrapsPtStores)
{
    KindleSystem sys(configWith(PtScheme::persistent, oneMs));
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, 64 * pageSize, true);
    b.touchPages(micro::scriptBase, 64 * pageSize);
    b.exit();
    sys.run(b.build(), "worker");
    // Every PTE store (≥ 64 leaf stores) went through the
    // consistency-wrapped policy.
    EXPECT_GE(sys.persistence()->stats().scalarValue(
                  "ptConsistency.wrappedStores"),
              64);
}

TEST(CheckpointTest, PersistentSchemeWritesNoMappingEntries)
{
    KindleSystem sys(configWith(PtScheme::persistent, oneMs));
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, 16 * pageSize, true);
    b.touchPages(micro::scriptBase, 16 * pageSize);
    for (int i = 0; i < 20; ++i)
        b.compute(1000000);
    b.exit();
    sys.run(b.build(), "worker");
    EXPECT_GT(sys.persistence()->checkpointsTaken(), 0u);
    EXPECT_EQ(sys.persistence()->stats().scalarValue("mappingEntries"),
              0);
}

TEST(CheckpointTest, MetadataMutationsAppendRedoRecords)
{
    KindleSystem sys(configWith(PtScheme::rebuild, oneSec));
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, 4 * pageSize, true);
    b.munmap(micro::scriptBase, 4 * pageSize);
    b.mmapFixed(micro::scriptBase, 4 * pageSize, true);
    b.exit();
    sys.run(b.build(), "mutator");
    // create + 3 VMA events + exit ≥ 5 records.
    EXPECT_GE(sys.persistence()->stats().scalarValue("redoRecords"),
              5);
}

TEST(CheckpointTest, CheckpointCostScalesWithMappedPages)
{
    // Property behind Figure 4a: rebuild checkpoints get more
    // expensive as the mapped NVM area grows.
    auto mean_ckpt_cost = [](std::uint64_t pages) {
        KindleSystem sys(configWith(PtScheme::rebuild, oneMs));
        micro::ScriptBuilder b;
        b.mmapFixed(micro::scriptBase, pages * pageSize, true);
        b.touchPages(micro::scriptBase, pages * pageSize);
        for (int i = 0; i < 30; ++i)
            b.compute(1000000);
        b.exit();
        sys.run(b.build(), "worker");
        const auto &dist =
            sys.persistence()->stats().distribution("ckptTicks");
        return dist.mean();
    };
    const double small = mean_ckpt_cost(64);
    const double large = mean_ckpt_cost(1024);
    EXPECT_GT(large, small * 4);
}

TEST(CheckpointTest, PersistentCheckpointCostInsensitiveToSize)
{
    auto mean_ckpt_cost = [](std::uint64_t pages) {
        KindleSystem sys(configWith(PtScheme::persistent, oneMs));
        micro::ScriptBuilder b;
        b.mmapFixed(micro::scriptBase, pages * pageSize, true);
        b.touchPages(micro::scriptBase, pages * pageSize);
        for (int i = 0; i < 30; ++i)
            b.compute(1000000);
        b.exit();
        sys.run(b.build(), "worker");
        return sys.persistence()
            ->stats()
            .distribution("ckptTicks")
            .mean();
    };
    const double small = mean_ckpt_cost(64);
    const double large = mean_ckpt_cost(1024);
    // Persistent checkpoints don't traverse the page table: cost may
    // wiggle but must not scale anywhere near linearly (16x pages).
    EXPECT_LT(large, small * 4);
}

TEST(CheckpointTest, ManualCheckpointWorks)
{
    KindleSystem sys(configWith(PtScheme::rebuild, oneSec));
    sys.kernel().spawnShell("manual", 5);
    const Tick t0 = sys.now();
    sys.persistence()->checkpointNow();
    EXPECT_GT(sys.now(), t0);
    EXPECT_EQ(sys.persistence()->checkpointsTaken(), 1u);
}

TEST(CheckpointTest, DemotionListsIdleProcessForNextSweep)
{
    // A shell that never runs gets no context switch, so under
    // skipCleanProcesses only the NVM map hook of a demotion can put
    // it back in the sweep.  The sweep must then publish its new
    // mapping instead of counting it as a clean skip.
    KindleConfig cfg = configWith(PtScheme::rebuild, oneSec);
    cfg.persistence->skipCleanProcesses = true;
    KindleSystem sys(cfg);
    os::Kernel &kernel = sys.kernel();
    PersistDomain &persist = *sys.persistence();
    os::Process &idle = kernel.spawnShell("idle", 3);
    const Addr va = kernel.sysMmap(idle, micro::scriptBase, pageSize, 0);
    kernel.pageTables().map(idle.ptRoot, va,
                            kernel.dramAllocator().alloc(), true, false);
    auto skips = [&] {
        return persist.stats().scalarValue("cleanSkips");
    };

    persist.checkpointNow();  // first sweep of a new process
    EXPECT_EQ(skips(), 0);
    persist.checkpointNow();  // nothing changed since
    EXPECT_EQ(skips(), 1);

    ASSERT_TRUE(kernel.demotePage(idle, va));
    persist.checkpointNow();
    EXPECT_EQ(skips(), 1);
    SavedStateSlot probe(kernel.kmem(), kernel.nvmLayout(), idle.slot);
    const auto list = probe.readMappingList(probe.readHeader());
    ASSERT_EQ(list.size(), 1u);
    EXPECT_EQ(list[0].vpn, cpu::vpnOf(va));
    EXPECT_EQ(list[0].pfn,
              kernel.pageTables().readLeaf(idle.ptRoot, va).pfn());
}

TEST(CheckpointTest, PersistentSchemeWalkSeesStoredUnflushedPte)
{
    // Walks read each table page once.  Under the persistent scheme
    // the tables live in NVM, so that read must return a PTE that was
    // stored but not yet written back, as entry-wise loads did.
    KindleSystem sys(configWith(PtScheme::persistent, oneSec));
    os::Kernel &kernel = sys.kernel();
    os::Process &proc = kernel.spawnShell("walker", 3);
    const Addr va = micro::scriptBase;
    const Addr frame = kernel.nvmAllocator().alloc();
    bool seen_unflushed = false;
    sys.injector().setObserver([&](const std::string &name,
                                   std::uint64_t) {
        if (name != "pt.after_store")
            return;
        kernel.pageTables().forEachLeaf(
            proc.ptRoot, [&](Addr leaf_va, cpu::Pte pte, Addr entry) {
                std::uint64_t durable = 0;
                sys.memory().readNvmDurable(entry, &durable,
                                            sizeof(durable));
                if (leaf_va == va && pte.frameAddr() == frame &&
                    durable == 0) {
                    seen_unflushed = true;
                }
            });
    });
    kernel.pageTables().map(proc.ptRoot, va, frame, true, true);
    EXPECT_TRUE(seen_unflushed);
}

TEST(CheckpointTest, SchemeMismatchIsFatal)
{
    setErrorsThrow(true);
    KindleConfig cfg;
    cfg.memory.dramBytes = 128 * oneMiB;
    cfg.memory.nvmBytes = 128 * oneMiB;
    cfg.kernel.ptInNvm = true;  // contradicted below
    // KindleSystem derives ptInNvm from the scheme, so build the
    // kernel by hand to provoke the mismatch.
    sim::Simulation sim;
    mem::HybridMemory memory(cfg.memory);
    cache::Hierarchy hier(cfg.caches, memory);
    cpu::Core core(cfg.core, sim, memory, hier);
    os::Kernel kernel(cfg.kernel, sim, memory, hier, core);
    EXPECT_THROW(PersistDomain(PersistParams{PtScheme::rebuild,
                                             10 * oneMs},
                               kernel),
                 SimError);
    setErrorsThrow(false);
}

} // namespace
} // namespace kindle::persist
