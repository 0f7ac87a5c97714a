#include "os/page_table.hh"

#include "base/logging.hh"

namespace kindle::os
{

using cpu::Pte;
using cpu::ptEntrySize;
using cpu::ptIndex;
using cpu::ptIndexBits;
using cpu::ptEntriesPerPage;
using cpu::ptLevels;

PageTableManager::PageTableManager(KernelMem &kmem_arg,
                                   FrameAllocator &table_alloc)
    : kmem(kmem_arg),
      tableAlloc(table_alloc),
      plainWrite(kmem_arg),
      statGroup("pageTables",
                "4-level page tables in simulated frames"),
      writesStat(statGroup.addScalar("entryWrites",
                                     "page-table entry stores")),
      tablePages(statGroup.addScalar("tablePages",
                                     "table frames allocated")),
      softWalks(statGroup.addScalar("softWalks",
                                    "software walks performed"))
{}

Addr
PageTableManager::allocTable()
{
    Addr frame = tableAlloc.tryAlloc();
    if (frame == invalidAddr && exhaustionHandler) {
        exhaustionHandler();
        frame = tableAlloc.tryAlloc();
    }
    if (frame == invalidAddr) {
        kindle_fatal("pageTables: table zone exhausted ({} frames)",
                     tableAlloc.totalFrames());
    }
    ++tablePages;
    presentCounts[frame] = 0;
    // New tables must read as all-absent.  Zero the frame with a
    // streaming write (durable when the table lives in NVM).
    if (kmem.mem().typeOf(frame) == mem::MemType::nvm) {
        kmem.zeroDurable(frame, pageSize);
    } else {
        kmem.mem().writeData(frame, zeroPage.data(), pageSize);
        kmem.simulation().bump(kmem.mem().submit(
            {mem::MemCmd::bulkWrite, frame, pageSize},
            kmem.simulation().now()));
    }
    return frame;
}

Addr
PageTableManager::newRoot()
{
    return allocTable();
}

void
PageTableManager::map(Addr root, Addr vaddr, Addr frame, bool writable,
                      bool nvm_backed)
{
    Addr table = root;
    for (int level = ptLevels - 1; level > 0; --level) {
        const Addr entry_addr =
            table + ptIndex(vaddr, static_cast<unsigned>(level)) *
                        ptEntrySize;
        Pte pte{kmem.read64(entry_addr)};
        if (!pte.present()) {
            const Addr child = allocTable();
            Pte fresh;
            fresh.setPresent(true);
            fresh.setWritable(true);
            fresh.setUser(true);
            fresh.setPfn(child >> pageShift);
            policy->writeEntry(entry_addr, fresh.raw);
            ++writesStat;
            ++presentCounts[table];
            table = child;
        } else {
            table = pte.frameAddr();
        }
    }

    const Addr leaf_addr = table + ptIndex(vaddr, 0) * ptEntrySize;
    Pte old_leaf{kmem.mem().readT<std::uint64_t>(leaf_addr)};
    Pte leaf;
    leaf.setPresent(true);
    leaf.setWritable(writable);
    leaf.setUser(true);
    leaf.setNvmBacked(nvm_backed);
    leaf.setPfn(frame >> pageShift);
    policy->writeEntry(leaf_addr, leaf.raw);
    ++writesStat;
    if (!old_leaf.present())
        ++presentCounts[table];
}

std::optional<Pte>
PageTableManager::unmap(Addr root, Addr vaddr)
{
    // Record the descent so empty tables can be unlinked bottom-up.
    Addr path_tables[ptLevels] = {};
    Addr path_entries[ptLevels] = {};

    Addr table = root;
    for (int level = ptLevels - 1; level > 0; --level) {
        const Addr entry_addr =
            table + ptIndex(vaddr, static_cast<unsigned>(level)) *
                        ptEntrySize;
        path_tables[level] = table;
        path_entries[level] = entry_addr;
        Pte pte{kmem.read64(entry_addr)};
        if (!pte.present())
            return std::nullopt;
        table = pte.frameAddr();
    }
    const Addr leaf_addr = table + ptIndex(vaddr, 0) * ptEntrySize;
    path_tables[0] = table;
    path_entries[0] = leaf_addr;
    Pte leaf{kmem.read64(leaf_addr)};
    if (!leaf.present())
        return std::nullopt;
    policy->writeEntry(leaf_addr, 0);
    ++writesStat;

    // Reclaim: walk up freeing tables that became empty; the root is
    // never freed.  Each level's decrement accounts for the entry
    // cleared in it (the leaf, or a freed child's slot).
    for (unsigned level = 0; level < ptLevels; ++level) {
        auto it = presentCounts.find(path_tables[level]);
        kindle_assert(it != presentCounts.end() && it->second > 0,
                      "present-count bookkeeping corrupt");
        const bool now_empty = (--it->second == 0);
        if (!now_empty || level == ptLevels - 1)
            break;
        presentCounts.erase(it);
        tableAlloc.free(path_tables[level]);
        policy->writeEntry(path_entries[level + 1], 0);
        ++writesStat;
    }
    return leaf;
}

unsigned
PageTableManager::presentEntries(Addr table) const
{
    const auto it = presentCounts.find(table);
    return it == presentCounts.end() ? 0 : it->second;
}

Pte
PageTableManager::readLeaf(Addr root, Addr vaddr)
{
    ++softWalks;
    Addr table = root;
    for (int level = ptLevels - 1; level > 0; --level) {
        const Addr entry_addr =
            table + ptIndex(vaddr, static_cast<unsigned>(level)) *
                        ptEntrySize;
        Pte pte{kmem.read64(entry_addr)};
        if (!pte.present())
            return Pte{};
        table = pte.frameAddr();
    }
    return Pte{kmem.read64(table + ptIndex(vaddr, 0) * ptEntrySize)};
}

void
PageTableManager::writeLeaf(Addr root, Addr vaddr, Pte pte)
{
    Addr table = root;
    for (int level = ptLevels - 1; level > 0; --level) {
        const Addr entry_addr =
            table + ptIndex(vaddr, static_cast<unsigned>(level)) *
                        ptEntrySize;
        Pte mid{kmem.read64(entry_addr)};
        kindle_assert(mid.present(),
                      "writeLeaf through an unmapped subtree");
        table = mid.frameAddr();
    }
    policy->writeEntry(table + ptIndex(vaddr, 0) * ptEntrySize, pte.raw);
    ++writesStat;
}

void
PageTableManager::walkRecurse(Addr table, unsigned level, Addr va_base,
                              const LeafVisitor &fn, bool charged) const
{
    const std::uint64_t span =
        std::uint64_t(1) << (pageShift + level * ptIndexBits);
    // A traversal streams each table page once (charged as one bulk
    // read); entry values are then examined functionally.
    if (charged) {
        kmem.simulation().bump(kmem.mem().submit(
            {mem::MemCmd::bulkRead, table, pageSize},
            kmem.simulation().now()));
    }
    TableEntries entries;
    readTable(table, entries);
    for (unsigned i = 0; i < ptEntriesPerPage; ++i) {
        const Addr entry_addr = table + i * ptEntrySize;
        const Pte pte{entries[i]};
        if (!pte.present())
            continue;
        const Addr va = va_base + i * span;
        if (level == 0)
            fn(va, pte, entry_addr);
        else
            walkRecurse(pte.frameAddr(), level - 1, va, fn, charged);
    }
}

void
PageTableManager::forEachLeaf(Addr root, const LeafVisitor &fn)
{
    ++softWalks;
    walkRecurse(root, ptLevels - 1, 0, fn, true);
}

void
PageTableManager::forEachLeafFunctional(Addr root,
                                        const LeafVisitor &fn) const
{
    walkRecurse(root, ptLevels - 1, 0, fn, false);
}

void
PageTableManager::teardownRecurse(Addr table, unsigned level)
{
    if (level > 0) {
        for (unsigned i = 0; i < ptEntriesPerPage; ++i) {
            Pte pte{kmem.read64(table + i * ptEntrySize)};
            if (pte.present())
                teardownRecurse(pte.frameAddr(), level - 1);
        }
    }
    presentCounts.erase(table);
    tableAlloc.free(table);
}

void
PageTableManager::teardown(Addr root)
{
    teardownRecurse(root, ptLevels - 1);
}

void
PageTableManager::readTable(Addr table, TableEntries &entries) const
{
    const mem::HybridMemory &memory = kmem.mem();
    // ECC counts one demand read per load.  Keep one load per entry on
    // a page with a faulty line, so its correction and damage counters
    // tick exactly as entry-wise loads tick them.
    bool faulty = false;
    if (const mem::NvmMediaModel *media = memory.media()) {
        media->forEachFaultyLine(AddrRange::withSize(table, pageSize),
                                 [&](Addr, unsigned) { faulty = true; });
    }
    if (!faulty) {
        memory.readData(table, entries.data(), pageSize);
        return;
    }
    for (unsigned i = 0; i < ptEntriesPerPage; ++i)
        entries[i] = memory.readT<std::uint64_t>(table + i * ptEntrySize);
}

void
PageTableManager::adoptRecurse(Addr table, unsigned level)
{
    unsigned present = 0;
    TableEntries entries;
    readTable(table, entries);
    for (unsigned i = 0; i < ptEntriesPerPage; ++i) {
        const Pte pte{entries[i]};
        if (!pte.present())
            continue;
        ++present;
        if (level > 0)
            adoptRecurse(pte.frameAddr(), level - 1);
    }
    presentCounts[table] = present;
}

void
PageTableManager::adopt(Addr root)
{
    adoptRecurse(root, ptLevels - 1);
}

} // namespace kindle::os
