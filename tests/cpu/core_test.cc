#include <gtest/gtest.h>

#include <string>

#include "cpu/core.hh"
#include "sim/simulation.hh"

#include "../sim/callback_event.hh"

namespace kindle::cpu
{
namespace
{

/** A miniature demand-paging OS for core unit tests. */
class MiniOs : public FaultHandler
{
  public:
    MiniOs(mem::HybridMemory &memory) : memory(memory)
    {
        root = allocFrame();
    }

    Addr
    allocFrame()
    {
        const Addr f = nextFrame;
        nextFrame += pageSize;
        return f;
    }

    bool
    handlePageFault(Core &, Addr vaddr, bool) override
    {
        ++faults;
        if (vaddr >= refuseAbove)
            return false;
        mapPage(roundDown(vaddr, pageSize), allocFrame());
        return true;
    }

    void
    mapPage(Addr vaddr, Addr frame)
    {
        Addr table = root;
        for (int level = ptLevels - 1; level > 0; --level) {
            const Addr ea =
                table + ptIndex(vaddr, unsigned(level)) * ptEntrySize;
            Pte pte{memory.readT<std::uint64_t>(ea)};
            if (!pte.present()) {
                const Addr child = allocFrame();
                Pte fresh;
                fresh.setPresent(true);
                fresh.setWritable(true);
                fresh.setPfn(child >> pageShift);
                memory.writeT<std::uint64_t>(ea, fresh.raw);
                table = child;
            } else {
                table = pte.frameAddr();
            }
        }
        Pte leaf;
        leaf.setPresent(true);
        leaf.setWritable(true);
        leaf.setPfn(frame >> pageShift);
        memory.writeT<std::uint64_t>(
            table + ptIndex(vaddr, 0) * ptEntrySize, leaf.raw);
    }

    mem::HybridMemory &memory;
    Addr root = 0;
    Addr nextFrame = 16 * oneMiB;
    Addr refuseAbove = maxTick;
    int faults = 0;
};

struct Rig
{
    Rig()
        : memory([] {
              mem::HybridMemoryParams p;
              p.dramBytes = 128 * oneMiB;
              p.nvmBytes = 64 * oneMiB;
              return p;
          }()),
          hier(cache::HierarchyParams{}, memory),
          core(CoreParams{}, sim, memory, hier),
          minios(memory)
    {
        core.setFaultHandler(&minios);
        core.setContext(1, minios.root);
    }

    sim::Simulation sim;
    mem::HybridMemory memory;
    cache::Hierarchy hier;
    Core core;
    MiniOs minios;
};

TEST(CoreTest, DemandPagingOnFirstTouch)
{
    Rig rig;
    EXPECT_TRUE(rig.core.memAccess(true, 0x100000, 8));
    EXPECT_EQ(rig.minios.faults, 1);
    // Second access: no fault, served from the TLB.
    EXPECT_TRUE(rig.core.memAccess(false, 0x100000, 8));
    EXPECT_EQ(rig.minios.faults, 1);
    EXPECT_GE(rig.core.tlb().stats().scalarValue("l1Hits"), 1);
}

TEST(CoreTest, IllegalAccessReturnsFalse)
{
    Rig rig;
    rig.minios.refuseAbove = oneGiB;
    EXPECT_FALSE(rig.core.memAccess(true, 2 * oneGiB, 8));
    EXPECT_EQ(rig.core.stats().scalarValue("illegalAccesses"), 1);
}

TEST(CoreTest, TimeAdvancesWithEveryOp)
{
    Rig rig;
    const Tick t0 = rig.sim.now();
    rig.core.memAccess(true, 0x200000, 8);
    const Tick t1 = rig.sim.now();
    EXPECT_GT(t1, t0);
    rig.core.compute(300);
    EXPECT_EQ(rig.sim.now(), t1 + 300 * 333);
}

TEST(CoreTest, PageStraddlingAccessFaultsBothPages)
{
    Rig rig;
    EXPECT_TRUE(rig.core.memAccess(true, 0x30000000 + pageSize - 4,
                                   8));
    EXPECT_EQ(rig.minios.faults, 2);
}

TEST(CoreTest, TranslateReturnsPhysicalAddress)
{
    Rig rig;
    rig.core.memAccess(true, 0x400000, 8);  // establish mapping
    const Addr pa = rig.core.translate(0x400123, false);
    EXPECT_NE(pa, invalidAddr);
    EXPECT_EQ(pa & (pageSize - 1), 0x123u);
}

TEST(CoreTest, HooksObserveFillsWritesAndLlcMisses)
{
    struct Spy : CoreHooks
    {
        void
        onTlbFill(TlbEntry &, const Pte &) override
        {
            ++fills;
        }
        void
        onDataWrite(TlbEntry &, Addr, std::uint64_t) override
        {
            ++writes;
        }
        void
        onLlcMiss(TlbEntry &, Addr, bool) override
        {
            ++misses;
        }
        int fills = 0;
        int writes = 0;
        int misses = 0;
    } spy;

    Rig rig;
    rig.core.addHooks(&spy);
    rig.core.memAccess(true, 0x500000, 8);
    EXPECT_EQ(spy.fills, 1);
    EXPECT_EQ(spy.writes, 1);
    EXPECT_EQ(spy.misses, 1);

    rig.core.memAccess(false, 0x500000, 8);  // warm: no new events
    EXPECT_EQ(spy.fills, 1);
    EXPECT_EQ(spy.misses, 1);

    rig.core.removeHooks(&spy);
    rig.core.memAccess(true, 0x600000, 8);
    EXPECT_EQ(spy.fills, 1);
}

TEST(CoreTest, TlbEvictionsReachHooksInRegistrationOrder)
{
    struct Spy : CoreHooks
    {
        Spy(char tag, std::string &log) : tag(tag), log(log) {}
        void
        onTlbEvict(const TlbEntry &) override
        {
            log += tag;
        }
        char tag;
        std::string &log;
    };

    std::string log;
    Spy a('a', log);
    Spy b('b', log);
    Rig rig;
    rig.core.addHooks(&a);
    rig.core.addHooks(&b);
    rig.core.memAccess(true, 0x500000, 8);
    rig.core.tlb().flushAll();
    EXPECT_EQ(log, "ab");

    // A detached hook hears nothing more; the other keeps its place.
    rig.core.removeHooks(&a);
    rig.core.memAccess(true, 0x500000, 8);
    rig.core.tlb().flushAll();
    EXPECT_EQ(log, "abb");
}

TEST(CoreTest, ServiceRunsDueEventsBetweenOps)
{
    Rig rig;
    int fired = 0;
    sim::CallbackEvent ev("tick", [&] { ++fired; });
    rig.sim.eventq().schedule(&ev, rig.sim.now() + 1);
    rig.core.memAccess(true, 0x700000, 8);
    EXPECT_EQ(fired, 0);  // not yet due when service() ran... or due
    rig.core.compute(1000);
    EXPECT_EQ(fired, 1);
}

TEST(CoreTest, ResetClearsVolatileState)
{
    Rig rig;
    rig.core.memAccess(true, 0x800000, 8);
    rig.core.msrs().write(MsrId::sspEnable, 1);
    rig.core.state().gpr[0] = 42;

    rig.core.reset();
    EXPECT_EQ(rig.core.msrs().read(MsrId::sspEnable), 0u);
    EXPECT_EQ(rig.core.state().gpr[0], 0u);
    EXPECT_EQ(rig.core.ptbr(), invalidAddr);
    Tick extra;
    EXPECT_EQ(rig.core.tlb().lookup(1, vpnOf(0x800000), extra),
              nullptr);
}

TEST(CoreTest, RipAdvancesPerInstruction)
{
    Rig rig;
    const auto rip0 = rig.core.state().rip;
    rig.core.memAccess(true, 0x900000, 8);
    rig.core.compute(1);
    EXPECT_EQ(rig.core.state().rip, rip0 + 8);
}

} // namespace
} // namespace kindle::cpu
