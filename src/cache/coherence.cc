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

    // In E and M the owner's bit is the only sharer bit, so
    // "sharers == req_bit" asks whether the requester owns the line.
    switch (entry.state) {
      case MesiState::invalid:
        entry.state =
            is_write ? MesiState::modified : MesiState::exclusive;
        entry.sharers = req_bit;
        return act;

      case MesiState::exclusive:
        if (entry.sharers == req_bit) {
            // Silent E->M upgrade on a write; reads stay E.
            if (is_write)
                entry.state = MesiState::modified;
            return act;
        }
        if (is_write) {
            // Remote write: the clean copy is dropped.
            act.invalidate = entry.sharers;
            entry.state = MesiState::modified;
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
            entry.sharers = req_bit;
        } else {
            entry.sharers |= req_bit;
        }
        return act;

      case MesiState::modified:
        if (entry.sharers == req_bit)
            return act;
        if (is_write) {
            // The dirty remote copy is pushed down as it invalidates
            // (invalidateLine writes back dirty lines), so a plain
            // invalidation message is sufficient.
            act.invalidate = entry.sharers;
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
MesiDirectory::probe(Addr line) const
{
    const std::size_t mask = slots.size() - 1;
    std::size_t i = home(line);
    while (slots[i].key != 0 && lineOf(slots[i].key) != line)
        i = (i + 1) & mask;
    return i;
}

void
MesiDirectory::erase(std::size_t hole)
{
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = (hole + 1) & mask; slots[i].key != 0;
         i = (i + 1) & mask) {
        // Slot i may fill the hole unless its home lies cyclically in
        // (hole, i]: then the hole is not on its probe path.
        const std::size_t from_home =
            (i - home(lineOf(slots[i].key))) & mask;
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
        if (s.key != 0)
            slots[probe(lineOf(s.key))] = s;
}

CoherenceActions
MesiDirectory::access(Addr line_addr, CpuId requester, bool is_write)
{
    kindle_assert(requester < numCores,
                  "coherence access from core {} of {}", requester,
                  numCores);
    const Addr line = line_addr >> lineShift;
    std::size_t i = probe(line);
    if (slots[i].key == 0) {
        kindle_assert(line_addr < addrLimit,
                      "line {} lies beyond the directory's {} bytes",
                      line_addr, addrLimit);
        if (2 * (used + 1) > slots.size()) {
            grow();
            i = probe(line);
        }
        ++used;
    }
    Slot &s = slots[i];
    DirEntry entry{stateOf(s.key), s.sharers};
    const bool joins_sharers = !is_write &&
                               entry.state != MesiState::invalid &&
                               !(entry.sharers & (1u << requester));
    const CoherenceActions act = apply(entry, requester, is_write);
    s.key = static_cast<std::uint32_t>(line << stateBits) |
            static_cast<std::uint32_t>(entry.state);
    s.sharers = entry.sharers;
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
    Slot &s = slots[probe(line_addr >> lineShift)];
    if (stateOf(s.key) == MesiState::modified) {
        s.key = (s.key & ~stateMask) |
                static_cast<std::uint32_t>(MesiState::exclusive);
    }
}

void
MesiDirectory::dropLine(Addr line_addr)
{
    const std::size_t i = probe(line_addr >> lineShift);
    if (slots[i].key != 0)
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
    // A line @p cpu owned in E/M has its bit as the only sharer, so
    // clearing the bit empties it like any line left with no sharers.
    // An erase pulls later chain members back into slot i, so stay on
    // i until it holds a survivor.  Only entries that wrap past the
    // table end can land on an already-visited slot, and visiting one
    // twice is harmless: its second pass finds nothing more to drop.
    for (std::size_t i = 0; i < slots.size(); ++i) {
        while (slots[i].key != 0) {
            slots[i].sharers &= ~cpu_bit;
            if (slots[i].sharers != 0)
                break;
            erase(i);
        }
    }
}

DirEntry
MesiDirectory::lookup(Addr line_addr) const
{
    const Slot &s = slots[probe(line_addr >> lineShift)];
    return DirEntry{stateOf(s.key), s.sharers};
}

} // namespace kindle::cache
