#include <gtest/gtest.h>

#include <functional>

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
    // A shell that never runs gets no context switch, so only the NVM
    // map hook of a demotion can put it back in the dirty-set sweep.
    // The sweep must then publish its new mapping instead of counting
    // it as a clean skip.
    KindleSystem sys(configWith(PtScheme::rebuild, oneSec));
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
    EXPECT_FALSE(persist.stats().hasScalar("cleanSkips"));
    persist.checkpointNow();  // nothing changed since
    EXPECT_EQ(skips(), 1);

    ASSERT_TRUE(kernel.demotePage(idle, va));
    persist.checkpointNow();
    EXPECT_EQ(skips(), 1);
    SavedStateSlot probe(kernel.kmem(), kernel.nvmLayout(), idle.slot);
    std::vector<MappingEntry> list;
    ASSERT_EQ(probe.readMappingList(probe.readHeader(), list),
              ImageStatus::ok);
    ASSERT_EQ(list.size(), 1u);
    EXPECT_EQ(list[0].vpn, cpu::vpnOf(va));
    EXPECT_EQ(list[0].pfn,
              kernel.pageTables().readLeaf(idle.ptRoot, va).pfn());
}

TEST(CheckpointTest, CleanSkipComparesEveryContextField)
{
    // Each case changes one field of a listed process's context and
    // nothing else, behind the hooks' back.  The next sweep must write
    // the process (its slot generation moves), not count a clean skip;
    // an unchanged listed process must still be skipped.
    KindleSystem sys(configWith(PtScheme::rebuild, oneSec));
    os::Kernel &kernel = sys.kernel();
    PersistDomain &persist = *sys.persistence();
    os::Process &proc = kernel.spawnShell("fields", 3);
    const Addr va = kernel.sysMmap(proc, micro::scriptBase,
                                   4 * pageSize, cpu::mapNvm);
    SavedStateSlot probe(kernel.kmem(), kernel.nvmLayout(), proc.slot);
    auto generation = [&] { return probe.readHeader().generation; };
    auto skips = [&] {
        return persist.stats().hasScalar("cleanSkips")
                   ? persist.stats().scalarValue("cleanSkips")
                   : 0.0;
    };

    persist.checkpointNow();  // first sweep of a new process
    ASSERT_NE(proc.aspace.find(va), nullptr);
    // The mapping once its first page is gone.
    auto vma = [&]() -> os::Vma & {
        return *proc.aspace.find(va + pageSize);
    };

    const std::vector<std::pair<const char *, std::function<void()>>>
        mutations = {
            {"gpr", [&] { proc.context.gpr[11] ^= 1; }},
            {"rip", [&] { proc.context.rip += 4; }},
            {"rsp", [&] { proc.context.rsp -= 8; }},
            {"rflags", [&] { proc.context.rflags ^= 0x40; }},
            {"fase on", [&] { proc.faseActive = true; }},
            {"fase off", [&] { proc.faseActive = false; }},
            {"vma count",
             [&] {
                 os::Vma extra;
                 extra.range =
                     AddrRange::withSize(va + 16 * pageSize, pageSize);
                 proc.aspace.insert(extra);
             }},
            {"vma start",
             [&] {
                 proc.aspace.removeRange(AddrRange::withSize(va, pageSize));
             }},
            {"vma end",
             [&] {
                 proc.aspace.removeRange(AddrRange::withSize(
                     vma().range.end() - pageSize, pageSize));
             }},
            {"vma prot", [&] { vma().prot ^= cpu::protWrite; }},
            {"vma nvm", [&] { vma().nvm = !vma().nvm; }},
            {"vma areaId", [&] { ++vma().areaId; }},
        };
    for (const auto &[name, mutate] : mutations) {
        SCOPED_TRACE(name);
        const std::uint64_t gen = generation();
        const double skipped = skips();
        persist.onVmaChanging(proc);  // listed, but not changed yet
        mutate();
        persist.checkpointNow();
        EXPECT_EQ(generation(), gen + 1);
        EXPECT_EQ(skips(), skipped);

        // The sweep published the change.
        SavedContext durable;
        ASSERT_EQ(
            probe.readConsistentContext(probe.readHeader(), durable),
            ImageStatus::ok);
        EXPECT_TRUE(sameContext(durable, SavedStateSlot::snapshot(
                                             proc, kernel.contextOf(proc))));
    }

    const std::uint64_t gen = generation();
    const double skipped = skips();
    persist.onVmaChanging(proc);
    persist.checkpointNow();
    EXPECT_EQ(generation(), gen);
    EXPECT_EQ(skips(), skipped + 1);
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
    os::Kernel kernel(cfg.kernel, sim, memory, hier, {&core});
    EXPECT_THROW(PersistDomain(PersistParams{PtScheme::rebuild,
                                             10 * oneMs},
                               kernel),
                 SimError);
    setErrorsThrow(false);
}

} // namespace
} // namespace kindle::persist
