/**
 * @file
 * OS-side management of the 4-level page tables.
 *
 * Tables are materialized in simulated physical frames, so both the
 * hardware walker and OS traversals pay real memory latency.  Every
 * entry store goes through a PtWritePolicy:
 *
 *  - the *rebuild* scheme hosts tables in DRAM and writes entries
 *    plainly;
 *  - the *persistent* scheme hosts tables in NVM and wraps each store
 *    in an NVM consistency mechanism (log + clwb + fence), which is
 *    where its per-modification overhead comes from (paper §III-A).
 */

#ifndef KINDLE_OS_PAGE_TABLE_HH
#define KINDLE_OS_PAGE_TABLE_HH

#include <array>
#include <functional>
#include <optional>
#include <unordered_map>

#include "base/stats.hh"
#include "cpu/pagetable_defs.hh"
#include "os/frame_alloc.hh"
#include "os/kernel_mem.hh"

namespace kindle::os
{

/** How page-table entry stores reach memory. */
class PtWritePolicy
{
  public:
    virtual ~PtWritePolicy() = default;

    /** Store @p value to the entry at physical @p entry_addr. */
    virtual void writeEntry(Addr entry_addr, std::uint64_t value) = 0;
};

/** Plain cached stores; suitable for DRAM-hosted tables. */
class PlainPtWrite : public PtWritePolicy
{
  public:
    explicit PlainPtWrite(KernelMem &kmem) : kmem(kmem) {}

    void
    writeEntry(Addr entry_addr, std::uint64_t value) override
    {
        kmem.write64(entry_addr, value);
    }

  private:
    KernelMem &kmem;
};

/** Manager for every process's radix tables. */
class PageTableManager
{
  public:
    /**
     * Entry stores start plain; setWritePolicy() swaps in a
     * consistency policy.
     *
     * @param kmem        Kernel memory gateway.
     * @param table_alloc Allocator providing table frames; its zone
     *                    determines where tables live (DRAM vs NVM).
     */
    PageTableManager(KernelMem &kmem, FrameAllocator &table_alloc);

    /** Route entry stores through @p p (not owned); null means plain
     *  stores. */
    void
    setWritePolicy(PtWritePolicy *p)
    {
        policy = p ? p : &plainWrite;
    }

    /** Allocate and zero a fresh root table; returns its address. */
    Addr newRoot();

    /**
     * Install vaddr→frame.  Allocates (and zeroes) intermediate
     * tables on demand.
     */
    void map(Addr root, Addr vaddr, Addr frame, bool writable,
             bool nvm_backed);

    /**
     * Clear the leaf mapping of @p vaddr.  Table pages left with no
     * present entries are freed and unlinked from their parents
     * (like free_pgtables in a production kernel), bottom-up — the
     * root is never freed.
     * @return the previous leaf if it was present.
     */
    std::optional<cpu::Pte> unmap(Addr root, Addr vaddr);

    /** Present entries currently recorded for @p table (testing). */
    unsigned presentEntries(Addr table) const;

    /** Software walk; returns a zero PTE if any level is absent. */
    cpu::Pte readLeaf(Addr root, Addr vaddr);

    /** Rewrite the leaf for @p vaddr (must be mapped). */
    void writeLeaf(Addr root, Addr vaddr, cpu::Pte pte);

    /** Visitor over present leaves: fn(vaddr, pte, entry_addr). */
    using LeafVisitor =
        std::function<void(Addr, cpu::Pte, Addr)>;

    /** Traverse every present leaf (software walk with timing).  Each
     *  table page is read once before its entries are visited, so @p fn
     *  must not store to the tables being walked. */
    void forEachLeaf(Addr root, const LeafVisitor &fn);

    /** forEachLeaf as hardware sees it: a functional walk that charges
     *  no table reads and counts no software walk. */
    void forEachLeafFunctional(Addr root, const LeafVisitor &fn) const;

    /** The raw entries of one table page. */
    using TableEntries = std::array<std::uint64_t, cpu::ptEntriesPerPage>;

    /**
     * Functional read of the whole table page at @p table (no timing):
     * the values 512 single-entry loads would return, including
     * not-yet-durable stores to NVM-hosted tables.
     */
    void readTable(Addr table, TableEntries &entries) const;

    /** Free every table frame reachable from @p root. */
    void teardown(Addr root);

    /**
     * Take ownership of a pre-existing table tree (the persistent
     * scheme's recovery path adopts the NVM-resident tables):
     * rebuilds the present-entry bookkeeping with a functional scan.
     */
    void adopt(Addr root);

    /** Number of entry stores performed (all levels). */
    std::uint64_t entryWrites() const
    {
        return static_cast<std::uint64_t>(writesStat.value());
    }

    FrameAllocator &tableAllocator() { return tableAlloc; }

    /**
     * Last-chance hook for table-zone exhaustion: invoked once when a
     * table allocation finds the zone empty, expected to free frames
     * (direct reclaim, OOM kill).  The allocation is retried after the
     * hook; only a still-empty zone is fatal — table frames have no
     * caller-visible ENOMEM path.
     */
    void
    setExhaustionHandler(std::function<void()> fn)
    {
        exhaustionHandler = std::move(fn);
    }

    statistics::StatGroup &stats() { return statGroup; }

  private:
    Addr allocTable();
    /** Visit every present leaf under @p table; @p charged bills one
     *  bulk read per table page. */
    void walkRecurse(Addr table, unsigned level, Addr va_base,
                     const LeafVisitor &fn, bool charged) const;
    void teardownRecurse(Addr table, unsigned level);
    void adoptRecurse(Addr table, unsigned level);

    KernelMem &kmem;
    FrameAllocator &tableAlloc;
    PlainPtWrite plainWrite;
    PtWritePolicy *policy = &plainWrite;
    std::function<void()> exhaustionHandler;

    /** Present-entry counts per table frame (host bookkeeping for
     *  the table-reclaim path; a real kernel keeps these in struct
     *  page). */
    std::unordered_map<Addr, unsigned> presentCounts;

    statistics::StatGroup statGroup;
    statistics::Scalar &writesStat;
    statistics::Scalar &tablePages;
    statistics::Scalar &softWalks;
};

} // namespace kindle::os

#endif // KINDLE_OS_PAGE_TABLE_HH
