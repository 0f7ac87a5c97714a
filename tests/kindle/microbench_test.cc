#include <gtest/gtest.h>

#include "base/logging.hh"
#include "kindle/microbench.hh"

namespace kindle::micro
{
namespace
{

std::vector<cpu::Op>
drain(ScriptStream &s)
{
    std::vector<cpu::Op> ops;
    cpu::Op op;
    while (s.next(op))
        ops.push_back(op);
    return ops;
}

using Kind = cpu::Op::Kind;

cpu::Op
mk(Kind kind, Addr addr = 0, std::uint64_t size = 0,
   std::uint32_t flags = 0)
{
    cpu::Op op;
    op.kind = kind;
    op.addr = addr;
    op.size = size;
    op.flags = flags;
    return op;
}

/** Every field of every Op, in order. */
void
expectOps(const std::vector<cpu::Op> &got,
          const std::vector<cpu::Op> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(got[i].kind, want[i].kind);
        EXPECT_EQ(got[i].addr, want[i].addr);
        EXPECT_EQ(got[i].size, want[i].size);
        EXPECT_EQ(got[i].flags, want[i].flags);
    }
}

constexpr std::uint32_t nvmFixed = cpu::mapFixed | cpu::mapNvm;

TEST(ScriptBuilderTest, BuildsOpsInOrder)
{
    ScriptBuilder b;
    b.mmapFixed(0x1000, pageSize, true)
        .write(0x1000)
        .read(0x1000)
        .compute(5)
        .munmap(0x1000, pageSize)
        .exit();
    auto stream = b.build();
    const auto ops = drain(*stream);
    ASSERT_EQ(ops.size(), 6u);
    EXPECT_EQ(ops[0].kind, cpu::Op::Kind::mmap);
    EXPECT_TRUE(ops[0].flags & cpu::mapNvm);
    EXPECT_TRUE(ops[0].flags & cpu::mapFixed);
    EXPECT_EQ(ops[1].kind, cpu::Op::Kind::write);
    EXPECT_EQ(ops[2].kind, cpu::Op::Kind::read);
    EXPECT_EQ(ops[3].kind, cpu::Op::Kind::compute);
    EXPECT_EQ(ops[3].size, 5u);
    EXPECT_EQ(ops[4].kind, cpu::Op::Kind::munmap);
    EXPECT_EQ(ops[5].kind, cpu::Op::Kind::exit);
}

TEST(ScriptBuilderTest, TouchPagesCoversRange)
{
    // One Op per page started in range: a ragged tail still gets its
    // page, an empty range none.
    const Addr a = 0x10000;
    ScriptBuilder b;
    b.readPages(a, 0)
        .touchPages(a, 4 * pageSize)
        .touchPages(a, pageSize + pageSize / 2)
        .readPages(a + pageSize, 1)
        .touchPages(a, 0)
        .exit();
    std::vector<cpu::Op> want;
    for (unsigned i = 0; i < 4; ++i)
        want.push_back(mk(Kind::write, a + Addr(i) * pageSize, 8));
    want.push_back(mk(Kind::write, a, 8));
    want.push_back(mk(Kind::write, a + pageSize, 8));
    want.push_back(mk(Kind::read, a + pageSize, 8));
    want.push_back(mk(Kind::exit));
    expectOps(drain(*b.build()), want);
}

TEST(ScriptBuilderTest, FaseMarkers)
{
    ScriptBuilder b;
    b.faseStart().write(0x1000).faseEnd();
    const auto ops = drain(*b.build());
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_EQ(ops[0].kind, cpu::Op::Kind::faseStart);
    EXPECT_EQ(ops[2].kind, cpu::Op::Kind::faseEnd);
}

TEST(SeqAllocTouchTest, Structure)
{
    const Addr b = scriptBase;
    const std::uint64_t p = pageSize;
    auto s = seqAllocTouch(4 * p);
    EXPECT_EQ(s->runCount(), 4u);  // mmap, touches, munmap, exit
    expectOps(drain(*s), {mk(Kind::mmap, b, 4 * p, nvmFixed),
                          mk(Kind::write, b, 8),
                          mk(Kind::write, b + p, 8),
                          mk(Kind::write, b + 2 * p, 8),
                          mk(Kind::write, b + 3 * p, 8),
                          mk(Kind::munmap, b, 4 * p),
                          mk(Kind::exit)});

    expectOps(drain(*seqAllocTouch(p, /*nvm=*/false)),
              {mk(Kind::mmap, b, p, cpu::mapFixed), mk(Kind::write, b, 8),
               mk(Kind::munmap, b, p), mk(Kind::exit)});
}

TEST(StrideAllocTest, PlacesPagesAtStride)
{
    const Addr b = scriptBase;
    const std::uint64_t st = oneGiB;
    auto s = strideAlloc(st, 2, false);
    EXPECT_EQ(s->runCount(), 4u);  // mmaps, writes, munmaps, exit
    expectOps(drain(*s), {mk(Kind::mmap, b, pageSize, cpu::mapFixed),
                          mk(Kind::mmap, b + st, pageSize, cpu::mapFixed),
                          mk(Kind::write, b, 8), mk(Kind::write, b + st, 8),
                          mk(Kind::munmap, b, pageSize),
                          mk(Kind::munmap, b + st, pageSize),
                          mk(Kind::exit)});
}

TEST(StrideAllocTest, AccessRoundsInsertReadsAndCompute)
{
    const Addr b = scriptBase;
    const std::uint64_t st = 2 * oneMiB;
    auto s = strideAlloc(st, 3, true, 2, 100);
    // mmaps, writes, (reads, compute) x 2, munmaps, exit.
    EXPECT_EQ(s->runCount(), 8u);
    std::vector<cpu::Op> want;
    for (unsigned i = 0; i < 3; ++i)
        want.push_back(mk(Kind::mmap, b + i * st, pageSize, nvmFixed));
    for (unsigned i = 0; i < 3; ++i)
        want.push_back(mk(Kind::write, b + i * st, 8));
    for (unsigned r = 0; r < 2; ++r) {
        for (unsigned i = 0; i < 3; ++i)
            want.push_back(mk(Kind::read, b + i * st, 8));
        want.push_back(mk(Kind::compute, 0, 100));
    }
    for (unsigned i = 0; i < 3; ++i)
        want.push_back(mk(Kind::munmap, b + i * st, pageSize));
    want.push_back(mk(Kind::exit));
    expectOps(drain(*s), want);
}

TEST(ChurnBenchTest, RoundsFreeAndReallocate)
{
    const Addr b = scriptBase;
    const std::uint64_t p = pageSize;
    auto s = churnBench(4 * p, 2 * p, 2, 2);
    std::vector<cpu::Op> want = {mk(Kind::mmap, b, 4 * p, nvmFixed)};
    for (unsigned i = 0; i < 4; ++i)
        want.push_back(mk(Kind::write, b + i * p, 8));
    for (unsigned r = 0; r < 2; ++r) {
        want.push_back(mk(Kind::munmap, b, 2 * p));
        want.push_back(mk(Kind::mmap, b, 2 * p, nvmFixed));
        for (unsigned a = 0; a < 2; ++a) {
            want.push_back(mk(Kind::read, b, 8));
            want.push_back(mk(Kind::read, b + p, 8));
        }
    }
    want.push_back(mk(Kind::munmap, b, 4 * p));
    want.push_back(mk(Kind::exit));
    expectOps(drain(*s), want);
}

TEST(ChurnBenchTest, OversizedChurnPanics)
{
    kindle::setErrorsThrow(true);
    EXPECT_THROW(churnBench(4 * pageSize, 8 * pageSize),
                 kindle::SimError);
    kindle::setErrorsThrow(false);
}

TEST(ScriptStreamTest, ExhaustionIsSticky)
{
    ScriptBuilder b;
    b.compute(1);
    auto s = b.build();
    cpu::Op op;
    EXPECT_TRUE(s->next(op));
    EXPECT_FALSE(s->next(op));
    EXPECT_FALSE(s->next(op));
}

TEST(ChurnBenchTest, RunsBoundedByPhasesNotPages)
{
    const std::uint64_t arena = 512 * oneMiB;
    const std::uint64_t churn = 16 * oneMiB;
    const unsigned rounds = 2;
    const unsigned access = 3;
    auto s = churnBench(arena, churn, rounds, access);
    // mmap + touch, per round munmap + mmap + one run per access
    // round, then munmap + exit.
    EXPECT_EQ(s->runCount(), 2u + rounds * (2u + access) + 2u);
    const std::uint64_t pages = arena / pageSize;
    const std::uint64_t churn_pages = churn / pageSize;
    EXPECT_EQ(drain(*s).size(),
              1 + pages + rounds * (2 + access * churn_pages) + 2);
}

TEST(ScriptBuilderTest, FoldsOnlyOpsThatContinueTheRun)
{
    const Addr p = pageSize;
    ScriptBuilder b;
    b.write(0x1000).write(0x2000).write(0x3000)  // one run
        .write(0x5000)                           // breaks the stride
        .touchPages(0x6000, 2 * p)               // continues 0x5000
        .write(0x8000, 16)                       // other size
        .read(0x3000).read(0x2000).read(0x1000)  // descending run
        .compute(7).compute(7).compute(8)
        .touchPages(0x1000, 2 * p).touchPages(0x3000, p)
        .touchPages(0x1000, p);
    auto s = b.build();
    EXPECT_EQ(s->runCount(), 8u);
    expectOps(drain(*s),
              {mk(Kind::write, 0x1000, 8), mk(Kind::write, 0x2000, 8),
               mk(Kind::write, 0x3000, 8), mk(Kind::write, 0x5000, 8),
               mk(Kind::write, 0x6000, 8), mk(Kind::write, 0x7000, 8),
               mk(Kind::write, 0x8000, 16), mk(Kind::read, 0x3000, 8),
               mk(Kind::read, 0x2000, 8), mk(Kind::read, 0x1000, 8),
               mk(Kind::compute, 0, 7), mk(Kind::compute, 0, 7),
               mk(Kind::compute, 0, 8), mk(Kind::write, 0x1000, 8),
               mk(Kind::write, 0x2000, 8), mk(Kind::write, 0x3000, 8),
               mk(Kind::write, 0x1000, 8)});
}

} // namespace
} // namespace kindle::micro
