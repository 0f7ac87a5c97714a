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
    entries.resize(pages);
    for (unsigned i = 0; i < pages; ++i) {
        entries[i].dramFrame = dram_alloc.alloc();
        slotByFrame.emplace(entries[i].dramFrame, i);
        freeList.push_back(i);
    }
    slotsIn[static_cast<unsigned>(PoolState::free)] = pages;
    freePages = pages;
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
        found = true;
    }

    while (!found && !dirtyList.empty()) {
        const unsigned idx = dirtyList.front();
        dirtyList.pop_front();
        if (entries[idx].state != PoolState::dirty)
            continue;
        ++selDirty;
        sel.index = idx;
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
        sel.needsCopyBack = entries[idx].state == PoolState::dirty;
        found = true;
    }

    kindle_assert(found, "pool has no pages at all");
    PoolEntry &e = entries[sel.index];
    sel.dramFrame = e.dramFrame;
    sel.displacedNvm = e.nvmHome;
    sel.displaced = e.mapping;
    e.nvmHome = invalidAddr;
    setState(e, PoolState::free);
    return sel;
}

void
DramPool::bind(unsigned index, Addr nvm_home, const PageMapping &at)
{
    PoolEntry &e = entries[index];
    kindle_assert(e.nvmHome == invalidAddr,
                  "binding an occupied pool slot");
    e.nvmHome = nvm_home;
    e.mapping = at;
    setState(e, PoolState::clean);
    freshList.push_back(index);
}

void
DramPool::release(unsigned index)
{
    PoolEntry &e = entries.at(index);
    if (e.state == PoolState::free)
        return;
    e.nvmHome = invalidAddr;
    setState(e, PoolState::free);
    // Lists are rebuilt wholesale at refreshLists(); drop lazily by
    // rebuilding now to keep the invariants simple and exact.
    refreshLists();
}

void
DramPool::markDirty(unsigned index)
{
    PoolEntry &e = entries.at(index);
    if (e.state == PoolState::clean)
        setState(e, PoolState::dirty);
}

void
DramPool::refreshLists()
{
    freeList.clear();
    cleanList.clear();
    dirtyList.clear();
    freshList.clear();
    for (unsigned i = 0; i < entries.size(); ++i) {
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

unsigned
DramPool::slotOf(Addr dram_frame) const
{
    const auto it = slotByFrame.find(dram_frame);
    return it == slotByFrame.end() ? size() : it->second;
}

} // namespace kindle::hscc
