#include "hscc/dram_pool.hh"

#include "base/logging.hh"

namespace kindle::hscc
{

DramPool::DramPool(unsigned pages, os::FrameAllocator &dram_alloc)
    : statGroup("dramPool", "HSCC DRAM page pool (free/clean/dirty)"),
      selFree(statGroup.addScalar("selFree",
                                  "selections from the free list")),
      selClean(statGroup.addScalar("selClean",
                                   "selections from the clean list")),
      selDirty(statGroup.addScalar(
          "selDirty", "selections needing dirty copy-back")),
      freePages(statGroup.addGauge("freePages",
                                   "pool slots currently free")),
      cleanPages(statGroup.addGauge("cleanPages",
                                    "pool slots caching clean pages")),
      dirtyPages(statGroup.addGauge("dirtyPages",
                                    "pool slots caching dirty pages"))
{
    kindle_assert(pages > 0, "empty DRAM pool");
    entries.reserve(pages);
    for (unsigned i = 0; i < pages; ++i) {
        PoolEntry e;
        e.dramFrame = dram_alloc.tryAlloc();
        if (e.dramFrame == invalidAddr) {
            // A pressure-shrunk DRAM zone may not fit the configured
            // pool; run with what the zone could supply rather than
            // aborting — a smaller cache is slower, not wrong.
            warn("hscc: DRAM pool shrunk to {} pages ({} requested; "
                 "zone exhausted)", i, pages);
            break;
        }
        entries.push_back(e);
        freeList.push_back(i);
    }
    kindle_assert(!entries.empty(),
                  "hscc: no DRAM frames at all for the page pool");
    slotsIn[static_cast<unsigned>(PoolState::free)] =
        static_cast<unsigned>(entries.size());
    freePages = static_cast<double>(entries.size());
}

void
DramPool::setState(PoolEntry &e, PoolState state)
{
    --slotsIn[static_cast<unsigned>(e.state)];
    ++slotsIn[static_cast<unsigned>(state)];
    e.state = state;
    freePages = slotsIn[static_cast<unsigned>(PoolState::free)];
    cleanPages = slotsIn[static_cast<unsigned>(PoolState::clean)];
    dirtyPages = slotsIn[static_cast<unsigned>(PoolState::dirty)];
}

unsigned
DramPool::freeCount() const
{
    return static_cast<unsigned>(freeList.size());
}

unsigned
DramPool::cleanCount() const
{
    return static_cast<unsigned>(cleanList.size());
}

unsigned
DramPool::dirtyCount() const
{
    return static_cast<unsigned>(dirtyList.size());
}

Selection
DramPool::select()
{
    Selection sel;
    bool found = false;

    if (!freeList.empty()) {
        ++selFree;
        sel.index = freeList.front();
        freeList.pop_front();
        found = true;
    }

    // Clean list next — but entries may have been dirtied by stores
    // since the interval-start refresh, in which case reusing them
    // without a copy-back would drop data; demote such entries to the
    // dirty list instead.
    while (!found && !cleanList.empty()) {
        const unsigned idx = cleanList.front();
        cleanList.pop_front();
        if (entries[idx].state == PoolState::dirty) {
            dirtyList.push_back(idx);
            continue;
        }
        if (entries[idx].state != PoolState::clean)
            continue;  // released since the refresh
        ++selClean;
        sel.index = idx;
        sel.displacedNvm = entries[idx].nvmHome;
        found = true;
    }

    while (!found && !dirtyList.empty()) {
        const unsigned idx = dirtyList.front();
        dirtyList.pop_front();
        if (entries[idx].state != PoolState::dirty)
            continue;
        ++selDirty;
        sel.index = idx;
        sel.displacedNvm = entries[idx].nvmHome;
        sel.needsCopyBack = true;
        found = true;
    }

    // Last resort: displace a page bound earlier in this same
    // interval (it cannot be dirty yet — the application has not run
    // since it was bound).
    while (!found && !freshList.empty()) {
        const unsigned idx = freshList.front();
        freshList.pop_front();
        if (entries[idx].state == PoolState::free)
            continue;
        (entries[idx].state == PoolState::dirty ? ++selDirty
                                                : ++selClean);
        sel.index = idx;
        sel.displacedNvm = entries[idx].nvmHome;
        sel.needsCopyBack = entries[idx].state == PoolState::dirty;
        found = true;
    }

    kindle_assert(found, "pool has no pages at all");
    PoolEntry &e = entries[sel.index];
    sel.dramFrame = e.dramFrame;
    if (sel.displacedNvm != invalidAddr)
        byNvmHome.erase(sel.displacedNvm);
    e.nvmHome = invalidAddr;
    setState(e, PoolState::free);
    return sel;
}

void
DramPool::bind(unsigned index, Addr nvm_home)
{
    PoolEntry &e = entries[index];
    kindle_assert(e.nvmHome == invalidAddr,
                  "binding an occupied pool slot");
    e.nvmHome = nvm_home;
    setState(e, PoolState::clean);
    e.fresh = true;
    byNvmHome[nvm_home] = index;
    freshList.push_back(index);
}

void
DramPool::release(Addr nvm_home)
{
    const auto it = byNvmHome.find(nvm_home);
    if (it == byNvmHome.end())
        return;
    const unsigned index = it->second;
    byNvmHome.erase(it);
    PoolEntry &e = entries[index];
    e.nvmHome = invalidAddr;
    setState(e, PoolState::free);
    // Lists are rebuilt wholesale at refreshLists(); drop lazily by
    // rebuilding now to keep the invariants simple and exact.
    refreshLists();
}

void
DramPool::markDirty(Addr nvm_home)
{
    const auto it = byNvmHome.find(nvm_home);
    if (it == byNvmHome.end())
        return;
    setState(entries[it->second], PoolState::dirty);
}

void
DramPool::refreshLists()
{
    freeList.clear();
    cleanList.clear();
    dirtyList.clear();
    freshList.clear();
    for (unsigned i = 0; i < entries.size(); ++i) {
        entries[i].fresh = false;
        switch (entries[i].state) {
          case PoolState::free:
            freeList.push_back(i);
            break;
          case PoolState::clean:
            cleanList.push_back(i);
            break;
          case PoolState::dirty:
            dirtyList.push_back(i);
            break;
        }
    }
}

const PoolEntry *
DramPool::entryFor(Addr nvm_home) const
{
    const auto it = byNvmHome.find(nvm_home);
    return it == byNvmHome.end() ? nullptr : &entries[it->second];
}

} // namespace kindle::hscc
