#include <gtest/gtest.h>

#include "base/addr_range.hh"
#include "base/intmath.hh"
#include "prep/replay.hh"
#include "prep/workloads.hh"

namespace kindle::prep
{
namespace
{

WorkloadParams
smallParams(std::uint64_t ops)
{
    WorkloadParams p;
    p.ops = ops;
    p.scaleDown = 64;
    return p;
}

TEST(ReplayTest, EmitsSetupBodyTeardownExit)
{
    auto src = makeWorkload(Benchmark::ycsbMem, smallParams(100));
    ReplayStream replay(*src, ReplayConfig{});

    const std::size_t areas = src->layout().areas.size();
    cpu::Op op;
    // Setup: one mmap per area.
    for (std::size_t i = 0; i < areas; ++i) {
        ASSERT_TRUE(replay.next(op));
        EXPECT_EQ(op.kind, cpu::Op::Kind::mmap) << i;
        EXPECT_TRUE(op.flags & cpu::mapFixed);
    }
    // Body: reads/writes/computes until teardown.
    std::size_t memops = 0;
    while (replay.next(op)) {
        if (op.kind == cpu::Op::Kind::munmap)
            break;
        EXPECT_TRUE(op.kind == cpu::Op::Kind::read ||
                    op.kind == cpu::Op::Kind::write ||
                    op.kind == cpu::Op::Kind::compute);
        memops += (op.kind != cpu::Op::Kind::compute);
    }
    EXPECT_EQ(memops, 100u);
    // Remaining teardown + exit.
    std::size_t unmaps = 1;
    bool exited = false;
    while (replay.next(op)) {
        if (op.kind == cpu::Op::Kind::munmap)
            ++unmaps;
        if (op.kind == cpu::Op::Kind::exit)
            exited = true;
    }
    EXPECT_EQ(unmaps, areas);
    EXPECT_TRUE(exited);
    EXPECT_EQ(replay.recordsReplayed(), 100u);
}

TEST(ReplayTest, NvmFlagFollowsConfig)
{
    auto src = makeWorkload(Benchmark::ycsbMem, smallParams(10));
    ReplayConfig cfg;
    cfg.heapsInNvm = true;
    cfg.stacksInNvm = false;
    ReplayStream replay(*src, cfg);
    cpu::Op op;
    std::size_t nvm_maps = 0;
    std::size_t dram_maps = 0;
    for (std::size_t i = 0; i < src->layout().areas.size(); ++i) {
        ASSERT_TRUE(replay.next(op));
        ASSERT_EQ(op.kind, cpu::Op::Kind::mmap);
        ((op.flags & cpu::mapNvm) ? nvm_maps : dram_maps)++;
    }
    EXPECT_EQ(nvm_maps, 2u);   // heap areas
    EXPECT_EQ(dram_maps, 4u);  // thread stacks
}

TEST(ReplayTest, AddressesFallInsidePlannedAreas)
{
    auto src = makeWorkload(Benchmark::gapbsPr, smallParams(2000));
    ReplayStream replay(*src, ReplayConfig{});
    cpu::Op op;
    while (replay.next(op)) {
        if (op.kind != cpu::Op::Kind::read &&
            op.kind != cpu::Op::Kind::write) {
            continue;
        }
        bool inside = false;
        for (const auto &a : src->layout().areas) {
            const Addr base = replay.areaBase(a.areaId);
            if (op.addr >= base &&
                op.addr + op.size <= base + a.sizeBytes) {
                inside = true;
                break;
            }
        }
        ASSERT_TRUE(inside) << "stray address " << op.addr;
    }
}

TEST(ReplayTest, FaseWrappingEmitsMarkers)
{
    auto src = makeWorkload(Benchmark::ycsbMem, smallParams(50));
    ReplayConfig cfg;
    cfg.wrapInFase = true;
    ReplayStream replay(*src, cfg);
    cpu::Op op;
    bool saw_start = false;
    bool saw_end = false;
    bool start_before_end = false;
    while (replay.next(op)) {
        if (op.kind == cpu::Op::Kind::faseStart) {
            saw_start = true;
            start_before_end = !saw_end;
        }
        if (op.kind == cpu::Op::Kind::faseEnd)
            saw_end = true;
    }
    EXPECT_TRUE(saw_start);
    EXPECT_TRUE(saw_end);
    EXPECT_TRUE(start_before_end);
}

TEST(ReplayTest, ComputeBatchingInsertsThinkTime)
{
    auto src = makeWorkload(Benchmark::ycsbMem, smallParams(64));
    ReplayConfig cfg;
    cfg.computePerRecord = 10;
    cfg.computeBatch = 8;
    ReplayStream replay(*src, cfg);
    cpu::Op op;
    std::size_t computes = 0;
    while (replay.next(op))
        computes += (op.kind == cpu::Op::Kind::compute);
    EXPECT_NEAR(static_cast<double>(computes), 64.0 / 8.0, 2.0);
}

TEST(ReplayTest, ZeroComputeConfigEmitsNone)
{
    auto src = makeWorkload(Benchmark::ycsbMem, smallParams(64));
    ReplayConfig cfg;
    cfg.computePerRecord = 0;
    ReplayStream replay(*src, cfg);
    cpu::Op op;
    while (replay.next(op))
        EXPECT_NE(op.kind, cpu::Op::Kind::compute);
}

TEST(ReplayTest, AreaBasesAreDisjointAndAligned)
{
    auto src = makeWorkload(Benchmark::g500Sssp, smallParams(10));
    ReplayStream replay(*src, ReplayConfig{});
    const auto &areas = src->layout().areas;
    for (std::size_t i = 0; i < areas.size(); ++i) {
        const Addr bi = replay.areaBase(areas[i].areaId);
        EXPECT_TRUE(isAligned(bi, pageSize));
        for (std::size_t j = i + 1; j < areas.size(); ++j) {
            const Addr bj = replay.areaBase(areas[j].areaId);
            const AddrRange ri =
                AddrRange::withSize(bi, areas[i].sizeBytes);
            const AddrRange rj =
                AddrRange::withSize(bj, areas[j].sizeBytes);
            EXPECT_FALSE(ri.intersects(rj));
        }
    }
}

TEST(ReplayTest, SparseOutOfOrderAreaIdsMapToTheirOwnAreas)
{
    // Area ids need be neither dense nor sorted: each record lands in
    // the area its id names, clamped to that area's captured size.
    MemoryLayout layout;
    layout.areas = {
        AreaInfo{42, AreaKind::heap, 3 * pageSize + 100, "heap42"},
        AreaInfo{7, AreaKind::stack, pageSize, "stack7"},
        AreaInfo{3, AreaKind::global, 2 * pageSize, "global3"},
    };
    std::vector<TraceRecord> records;
    const auto rec = [&](std::uint32_t id, std::uint64_t off, TraceOp op,
                         std::uint16_t size) {
        TraceRecord r;
        r.areaId = id;
        r.offset = off;
        r.op = op;
        r.size = size;
        records.push_back(r);
    };
    rec(3, 16, TraceOp::read, 8);
    rec(42, 3 * pageSize + 96, TraceOp::write, 8);  // clamped to 92
    rec(7, 0, TraceOp::write, 0);                     // a 1-byte access
    rec(42, 0, TraceOp::read, 64);
    rec(7, pageSize, TraceOp::read, 8);               // clamped to 4088
    TraceImage image("sparse", layout, records);

    ReplayConfig cfg;
    cfg.stacksInNvm = false;
    cfg.computePerRecord = 0;
    ReplayStream replay(image, cfg);
    const Addr b42 = replay.areaBase(42);
    const Addr b7 = replay.areaBase(7);
    const Addr b3 = replay.areaBase(3);
    EXPECT_EQ(b42, cfg.baseVaddr);
    EXPECT_LT(b42, b7);
    EXPECT_LT(b7, b3);

    cpu::Op op;
    // Setup maps the areas in layout order.
    const struct
    {
        Addr base;
        std::uint64_t len;
        bool nvm;
    } maps[] = {{b42, 4 * pageSize, true},
                {b7, pageSize, false},
                {b3, 2 * pageSize, true}};
    for (const auto &m : maps) {
        ASSERT_TRUE(replay.next(op));
        ASSERT_EQ(op.kind, cpu::Op::Kind::mmap);
        EXPECT_EQ(op.addr, m.base);
        EXPECT_EQ(op.size, m.len);
        EXPECT_EQ((op.flags & cpu::mapNvm) != 0, m.nvm);
    }
    const struct
    {
        cpu::Op::Kind kind;
        Addr addr;
        std::uint64_t size;
    } body[] = {{cpu::Op::Kind::read, b3 + 16, 8},
                {cpu::Op::Kind::write, b42 + 3 * pageSize + 92, 8},
                {cpu::Op::Kind::write, b7, 1},
                {cpu::Op::Kind::read, b42, 64},
                {cpu::Op::Kind::read, b7 + pageSize - 8, 8}};
    for (const auto &b : body) {
        ASSERT_TRUE(replay.next(op));
        EXPECT_EQ(op.kind, b.kind);
        EXPECT_EQ(op.addr, b.addr);
        EXPECT_EQ(op.size, b.size);
    }
    // Teardown unmaps the same areas in the same order, then exits.
    for (const auto &m : maps) {
        ASSERT_TRUE(replay.next(op));
        ASSERT_EQ(op.kind, cpu::Op::Kind::munmap);
        EXPECT_EQ(op.addr, m.base);
        EXPECT_EQ(op.size, m.len);
    }
    ASSERT_TRUE(replay.next(op));
    EXPECT_EQ(op.kind, cpu::Op::Kind::exit);
    EXPECT_FALSE(replay.next(op));
    EXPECT_EQ(replay.recordsReplayed(), records.size());
}

} // namespace
} // namespace kindle::prep
