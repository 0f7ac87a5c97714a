#include "cache/coherence.hh"

#include <algorithm>

#include "base/bitfield.hh"
#include "base/intmath.hh"
#include "base/logging.hh"

namespace kindle::cache
{

const char *
mesiStateName(MesiState s)
{
    switch (s) {
      case MesiState::invalid:
        return "I";
      case MesiState::shared:
        return "S";
      case MesiState::exclusive:
        return "E";
      case MesiState::modified:
        return "M";
    }
    return "?";
}

namespace
{

/** Slots in a fresh table. */
constexpr std::size_t initialSlots = 1024;

} // namespace

MesiDirectory::MesiDirectory(unsigned num_cores)
    : numCores(num_cores),
      slots(initialSlots),
      hashShift(64 - floorLog2(initialSlots)),
      statGroup("coherence", "MESI-lite LLC directory"),
      invalidationsSent(statGroup.addScalar(
          "invalidations", "invalidation messages to private caches")),
      writebacksForced(statGroup.addScalar(
          "writebacksForced", "dirty copies pushed down for a reader")),
      upgrades(statGroup.addScalar("upgrades",
                                   "shared-to-modified upgrades")),
      sharedFills(statGroup.addScalar(
          "sharedFills", "read fills joining an existing sharer set"))
{
    kindle_assert(num_cores >= 1 && num_cores <= 32,
                  "MESI directory supports 1-32 cores, got {}",
                  num_cores);
}

CoherenceActions
MesiDirectory::apply(DirEntry &entry, CpuId requester, bool is_write)
{
    const std::uint32_t req_bit = 1u << requester;
    CoherenceActions act;

    switch (entry.state) {
      case MesiState::invalid:
        entry.state =
            is_write ? MesiState::modified : MesiState::exclusive;
        entry.owner = static_cast<std::uint8_t>(requester);
        entry.sharers = req_bit;
        return act;

      case MesiState::exclusive:
        if (entry.owner == requester) {
            // Silent E->M upgrade on a write; reads stay E.
            if (is_write)
                entry.state = MesiState::modified;
            return act;
        }
        if (is_write) {
            // Remote write: the clean copy is dropped.
            act.invalidate = entry.sharers;
            entry.state = MesiState::modified;
            entry.owner = static_cast<std::uint8_t>(requester);
            entry.sharers = req_bit;
        } else {
            // Remote read of a clean line: both end up sharers.
            entry.state = MesiState::shared;
            entry.sharers |= req_bit;
        }
        return act;

      case MesiState::shared:
        if (is_write) {
            act.invalidate = entry.sharers & ~req_bit;
            act.upgrade = (entry.sharers & req_bit) != 0;
            entry.state = MesiState::modified;
            entry.owner = static_cast<std::uint8_t>(requester);
            entry.sharers = req_bit;
        } else {
            entry.sharers |= req_bit;
        }
        return act;

      case MesiState::modified:
        if (entry.owner == requester)
            return act;
        if (is_write) {
            // The dirty remote copy is pushed down as it invalidates
            // (invalidateLine writes back dirty lines), so a plain
            // invalidation message is sufficient.
            act.invalidate = entry.sharers;
            entry.owner = static_cast<std::uint8_t>(requester);
            entry.sharers = req_bit;
        } else {
            // Remote read: force the owner's dirty copy down to the
            // shared LLC, then both keep clean copies.
            act.writebackFrom = entry.sharers;
            entry.state = MesiState::shared;
            entry.sharers |= req_bit;
        }
        return act;
    }
    kindle_panic("unhandled MESI state");
}

std::size_t
MesiDirectory::probe(Addr line_addr) const
{
    const std::size_t mask = slots.size() - 1;
    std::size_t i = home(line_addr);
    while (slots[i].line != line_addr && slots[i].line != emptyKey)
        i = (i + 1) & mask;
    return i;
}

void
MesiDirectory::erase(std::size_t hole)
{
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = (hole + 1) & mask; slots[i].line != emptyKey;
         i = (i + 1) & mask) {
        // Slot i may fill the hole unless its home lies cyclically in
        // (hole, i]: then the hole is not on its probe path.
        const std::size_t from_home = (i - home(slots[i].line)) & mask;
        if (from_home >= ((i - hole) & mask)) {
            slots[hole] = slots[i];
            hole = i;
        }
    }
    slots[hole] = Slot{};
    --used;
}

void
MesiDirectory::grow()
{
    std::vector<Slot> old(slots.size() * 2);
    old.swap(slots);
    --hashShift;
    for (const Slot &s : old)
        if (s.line != emptyKey)
            slots[probe(s.line)] = s;
}

CoherenceActions
MesiDirectory::access(Addr line_addr, CpuId requester, bool is_write)
{
    kindle_assert(requester < numCores,
                  "coherence access from core {} of {}", requester,
                  numCores);
    std::size_t i = probe(line_addr);
    if (slots[i].line == emptyKey) {
        if (2 * (used + 1) > slots.size()) {
            grow();
            i = probe(line_addr);
        }
        slots[i].line = line_addr;
        ++used;
    }
    DirEntry &entry = slots[i].entry;
    const bool joins_sharers = !is_write &&
                               entry.state != MesiState::invalid &&
                               !(entry.sharers & (1u << requester));
    const CoherenceActions act = apply(entry, requester, is_write);
    invalidationsSent +=
        static_cast<double>(popCount(act.invalidate));
    writebacksForced +=
        static_cast<double>(popCount(act.writebackFrom));
    if (act.upgrade)
        ++upgrades;
    if (joins_sharers)
        ++sharedFills;
    return act;
}

void
MesiDirectory::cleanLine(Addr line_addr)
{
    Slot &s = slots[probe(line_addr)];
    if (s.line != emptyKey && s.entry.state == MesiState::modified)
        s.entry.state = MesiState::exclusive;
}

void
MesiDirectory::dropLine(Addr line_addr)
{
    const std::size_t i = probe(line_addr);
    if (slots[i].line != emptyKey)
        erase(i);
}

void
MesiDirectory::reset()
{
    std::fill(slots.begin(), slots.end(), Slot{});
    used = 0;
}

void
MesiDirectory::offlineCore(CpuId cpu)
{
    kindle_assert(cpu < numCores, "offlining core {} of {}", cpu,
                  numCores);
    const std::uint32_t cpu_bit = 1u << cpu;
    // An erase pulls later chain members back into slot i, so stay on
    // i until it holds a survivor.  Only entries that wrap past the
    // table end can land on an already-visited slot, and visiting one
    // twice is harmless: its second pass finds nothing more to drop.
    for (std::size_t i = 0; i < slots.size(); ++i) {
        while (slots[i].line != emptyKey) {
            DirEntry &entry = slots[i].entry;
            const bool owned = (entry.state == MesiState::exclusive ||
                                entry.state == MesiState::modified) &&
                               entry.owner == cpu;
            entry.sharers &= ~cpu_bit;
            if (!owned && entry.sharers != 0)
                break;
            erase(i);
        }
    }
}

DirEntry
MesiDirectory::lookup(Addr line_addr) const
{
    const Slot &s = slots[probe(line_addr)];
    return s.line == emptyKey ? DirEntry{} : s.entry;
}

} // namespace kindle::cache
