/**
 * @file
 * The zero-cost contract of the pressure and core-fault subsystems,
 * shared by pressure_test and core_fault_test: a machine with neither
 * plan armed runs deterministically and its stat tree holds none of
 * their stats, because both register theirs lazily on a first event.
 */

#ifndef KINDLE_TESTS_OS_DEFAULT_TREE_HH
#define KINDLE_TESTS_OS_DEFAULT_TREE_HH

#include <gtest/gtest.h>

#include <string>

#include "kindle/kindle.hh"
#include "kindle/microbench.hh"

namespace kindle::os::test
{

/** Stat-path markers that only a pressure plan or a core fault may
 *  bring into a tree. */
inline constexpr const char *faultOnlyStatMarkers[] = {
    // Memory pressure: allocator, reclaim, OOM, backpressure.
    "reclaim.", "enomemFaults", "allocRetries", "allocFailuresInjected",
    "oomKills", "oomPagesFreed", "lowWatermark", "highWatermark",
    "exhaustedAllocs", "writeStalls", "writeStallLatency",
    "earlyCheckpoints", "slotsCompacted", "wrapDestroyed",
    // Core faults: IPI retry, watchdog offlining.
    "ipiRetries", "ipiTimeouts", "coresOfflined", "affinityBroken",
    "coreLossKills",
};

/**
 * Run a checkpointing @p cores-core machine with no plan armed: a
 * foreground churning DRAM and NVM mappings plus one background
 * mutator per extra core, so shootdowns, checkpoints and the redo log
 * all run.  Returns the final stats.
 */
inline statistics::StatSnapshot
runDefaultTree(unsigned cores)
{
    KindleConfig cfg;
    cfg.memory.dramBytes = 128 * oneMiB;
    cfg.memory.nvmBytes = 256 * oneMiB;
    cfg.numCores = cores;
    cfg.persistence =
        persist::PersistParams{persist::PtScheme::rebuild, oneMs / 4};
    KindleSystem sys(cfg);
    for (unsigned i = 1; i < cores; ++i) {
        micro::ScriptBuilder b;
        const Addr base =
            micro::scriptBase + Addr(0x1000) * pageSize * i;
        b.mmapFixed(base, 16 * pageSize, true);
        b.touchPages(base, 16 * pageSize);
        for (int r = 0; r < 6; ++r) {
            b.compute(200000);
            b.touchPages(base, 8 * pageSize);
        }
        b.exit();
        sys.kernel().spawn(b.build(), "bg" + std::to_string(i));
    }
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, 48 * pageSize, true);
    b.touchPages(micro::scriptBase, 48 * pageSize);
    for (int r = 0; r < 10; ++r) {
        b.compute(500000);
        const Addr extra =
            micro::scriptBase + (64 + Addr(r) * 16) * pageSize;
        b.mmapFixed(extra, 8 * pageSize, r % 3 != 0);
        b.touchPages(extra, 8 * pageSize);
        if (r % 2)
            b.munmap(extra, 8 * pageSize);
    }
    b.exit();
    sys.run(b.build(), "plain");
    return sys.snapshotStats();
}

/** Two runs of runDefaultTree(@p cores) are identical and hold no
 *  fault-only stat. */
inline void
expectZeroCostDefaultTree(unsigned cores)
{
    const statistics::StatSnapshot first = runDefaultTree(cores);
    EXPECT_TRUE(first == runDefaultTree(cores))
        << "default runs diverged on " << cores << " cores";
    EXPECT_GT(first.get("persist.checkpoints"), 0.0);
    for (const auto &[path, value] : first.entries()) {
        (void)value;
        for (const char *marker : faultOnlyStatMarkers) {
            EXPECT_EQ(path.find(marker), std::string::npos)
                << "'" << path << "' leaked into the default "
                << cores << "-core tree";
        }
    }
}

} // namespace kindle::os::test

#endif // KINDLE_TESTS_OS_DEFAULT_TREE_HH
