/**
 * @file
 * Allocation guard for the probes every persist event crosses: with
 * the flight ring and a crash-site observer armed, argument-carrying
 * trace probes, crash-site hits, durable-write probes and NVM
 * writeback cycles must allocate nothing once warmed up.  This binary
 * replaces the global operator new with a counting one, so it holds
 * only these tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "fault/fault.hh"
#include "mem/backing_store.hh"
#include "trace/trace.hh"

namespace
{

std::atomic<std::uint64_t> allocations{0};

void *
countedAlloc(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

/** The over-aligned forms: a pool resource asks its upstream for
 *  aligned blocks. */
void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    if (void *p = std::aligned_alloc(a, (size + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace kindle
{
namespace
{

/** One round of every probe kind on the persist path. */
void
persistRound(mem::DurableStore &store, Tick &clock, unsigned i)
{
    KINDLE_TRACE_INSTANT_ARGS(redo, "redo.append", "type={} seq={}",
                              static_cast<std::uint32_t>(i % 6), i);
    {
        KINDLE_TRACE_SPAN_ARGS(pt, "pt.wrappedStore", "entry={}",
                               Addr{0x1000} + 8 * i);
        KINDLE_CRASH_SITE("pt.after_store");
    }
    {
        trace::TraceSpan span(trace::Flag::hscc, "hscc.migrate");
        if (span.active())
            span.setArgs("candidates={} migrated={}", std::size_t{i},
                         0.5 * i);
    }
    KINDLE_TRACE_INSTANT_ARGS(vma, "os.mmap", "pid={} [{}, {}) nvm={}",
                              -1, Addr{0}, Addr{4096}, i % 2 == 0);
    KINDLE_TRACE_INSTANT_ARGS(vma, "os.retireFrame", "reason={}",
                              "patrol");
    KINDLE_CRASH_SITE("redo.after_append");
    fault::onDurableNvmWrite(clock);

    // A clwb of a few lines, then a drain: the buffer's usual load.
    const Addr base = store.range().start() + (i % 8) * pageSize;
    for (Addr l = 0; l < 4; ++l) {
        store.writeVolatileT<std::uint64_t>(base + l * lineSize, i);
        store.commitLine(base + l * lineSize, clock, clock + 300 + l);
    }
    clock += 200;
    store.drainTo(clock);
    clock += 200;
}

TEST(ProbeAllocationTest, ArmedPersistProbesAllocateNothing)
{
    Tick clock = 0;
    trace::TraceParams params;  // the default: ring only, depth 512
    trace::TraceSink sink(params, [&clock] { return clock; });
    fault::CrashInjector injector(fault::FaultPlan{},
                                  [&clock] { return clock; });
    injector.activate();
    std::uint64_t observed = 0;
    injector.setObserver(
        [&observed](const std::string &, std::uint64_t) { ++observed; });
    mem::DurableStore store(AddrRange(3 * oneGiB, 3 * oneGiB + oneMiB));
    trace::ProbeScope scope({.sink = &sink, .injector = &injector});

    // Warm-up: build the observer's site names, fill the ring and grow
    // every buffer to its working size.
    for (unsigned i = 0; i < 1024; ++i)
        persistRound(store, clock, i);

    const std::uint64_t before = allocations.load();
    for (unsigned i = 0; i < 4096; ++i)
        persistRound(store, clock, i);
    const std::uint64_t during = allocations.load() - before;

    EXPECT_EQ(during, 0u);
    EXPECT_EQ(observed, 2u * (1024 + 4096));
    EXPECT_EQ(injector.hitsOf("pt.after_store"), 1024u + 4096u);
    EXPECT_EQ(sink.ringSize(), params.ringDepth);
    EXPECT_EQ(store.inflightLines(), 4u);
    store.drainTo(clock + 1000);
    EXPECT_EQ(store.inflightLines(), 0u);
}

TEST(ProbeAllocationTest, TheCounterSeesAllocations)
{
    // The guard above means something only if allocations register.
    const std::uint64_t before = allocations.load();
    auto *s = new std::string(64, 'x');
    const std::uint64_t during = allocations.load() - before;
    delete s;
    EXPECT_GE(during, 2u);
}

} // namespace
} // namespace kindle
