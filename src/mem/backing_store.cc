#include "mem/backing_store.hh"

#include <algorithm>
#include <bit>
#include <vector>

#include "base/random.hh"
#include "mem/nvm_media.hh"

namespace kindle::mem
{

BackingStore::BackingStore(AddrRange range)
    : _range(range),
      leaves(divCeil(divCeil(range.size(), pageSize), leafFrames))
{}

std::uint64_t
BackingStore::frameIndex(Addr addr) const
{
    kindle_assert(_range.contains(addr),
                  "backing-store access at {} outside range", addr);
    return (addr - _range.start()) >> pageShift;
}

BackingStore::FrameLines *
BackingStore::frameFor(Addr addr, bool allocate)
{
    const std::uint64_t fn = frameIndex(addr);
    std::unique_ptr<Leaf> &leaf = leaves[fn / leafFrames];
    if (!leaf) {
        if (!allocate)
            return nullptr;
        leaf = std::make_unique<Leaf>();
    }
    return &(*leaf)[fn % leafFrames];
}

const BackingStore::FrameLines *
BackingStore::frameFor(Addr addr) const
{
    const std::uint64_t fn = frameIndex(addr);
    const Leaf *leaf = leaves[fn / leafFrames].get();
    return leaf ? &(*leaf)[fn % leafFrames] : nullptr;
}

std::uint8_t *
BackingStore::insertLine(FrameLines &f, std::uint64_t bit)
{
    const unsigned count = std::popcount(f.mask);
    const unsigned at = std::popcount(f.mask & (bit - 1));
    if ((count & (count - 1)) == 0) {
        // Full (0, 1, 2, 4, ... lines held): double the capacity and
        // leave a gap at the new line's rank.
        std::unique_ptr<Line[]> grown(new Line[count ? 2 * count : 1]);
        std::copy(f.lines.get(), f.lines.get() + at, grown.get());
        std::copy(f.lines.get() + at, f.lines.get() + count,
                  grown.get() + at + 1);
        f.lines = std::move(grown);
    } else {
        std::copy_backward(f.lines.get() + at, f.lines.get() + count,
                           f.lines.get() + count + 1);
    }
    f.mask |= bit;
    ++held;
    Line &line = f.lines[at];
    line.fill(0);
    return line.data();
}

void
BackingStore::clear()
{
    for (auto &leaf : leaves)
        leaf.reset();
    held = 0;
}

void
BackingStore::read(Addr addr, void *dst, std::uint64_t size) const
{
    auto *out = static_cast<std::uint8_t *>(dst);
    const FrameLines *f = nullptr;
    for (bool first = true; size > 0; first = false) {
        const std::uint64_t in_page = addr & (pageSize - 1);
        const std::uint64_t in_line = addr & (lineSize - 1);
        const std::uint64_t chunk = std::min(size, lineSize - in_line);
        if (first || in_page == 0)
            f = frameFor(addr);
        const std::uint64_t bit = std::uint64_t{1} << (in_page >> lineShift);
        if (f && (f->mask & bit)) {
            const Line &line = f->lines[std::popcount(f->mask & (bit - 1))];
            std::memcpy(out, line.data() + in_line, chunk);
        } else {
            std::memset(out, 0, chunk);
        }
        addr += chunk;
        out += chunk;
        size -= chunk;
    }
}

void
BackingStore::write(Addr addr, const void *src, std::uint64_t size)
{
    const auto *in = static_cast<const std::uint8_t *>(src);
    FrameLines *f = nullptr;
    for (bool first = true; size > 0; first = false) {
        const std::uint64_t in_page = addr & (pageSize - 1);
        const std::uint64_t in_line = addr & (lineSize - 1);
        const std::uint64_t chunk = std::min(size, lineSize - in_line);
        if (first || in_page == 0)
            f = frameFor(addr, false);
        const std::uint64_t bit = std::uint64_t{1} << (in_page >> lineShift);
        std::uint8_t *line = nullptr;
        if (f && (f->mask & bit)) {
            line = f->lines[std::popcount(f->mask & (bit - 1))].data();
        } else if (std::any_of(in, in + chunk,
                               [](std::uint8_t b) { return b != 0; })) {
            if (!f)
                f = frameFor(addr, true);
            line = insertLine(*f, bit);
        }
        if (line)
            std::memcpy(line + in_line, in, chunk);
        addr += chunk;
        in += chunk;
        size -= chunk;
    }
}

DurableStore::DurableStore(AddrRange range)
    : durable(range),
      _range(range),
      maskLeaves(divCeil(divCeil(range.size(), pageSize),
                         BackingStore::leafFrames))
{}

DurableStore::LineMasks &
DurableStore::masksAt(Addr line_addr)
{
    kindle_assert(_range.contains(line_addr),
                  "durable-store access at {} outside range", line_addr);
    const std::uint64_t fn = (line_addr - _range.start()) >> pageShift;
    std::unique_ptr<MaskLeaf> &leaf =
        maskLeaves[fn / BackingStore::leafFrames];
    if (!leaf)
        leaf = std::make_unique<MaskLeaf>();
    return (*leaf)[fn % BackingStore::leafFrames];
}

void
DurableStore::writeDurable(Addr addr, const void *src, std::uint64_t size)
{
    durable.write(addr, src, size);
    if (media)
        media->onRangeWrite(addr, size);
}

void
DurableStore::readDurable(Addr addr, void *dst, std::uint64_t size) const
{
    durable.read(addr, dst, size);
    if (media)
        media->filterRead(addr, dst, size);
}

void
DurableStore::writeVolatile(Addr addr, const void *src, std::uint64_t size)
{
    const auto *in = static_cast<const std::uint8_t *>(src);
    while (size > 0) {
        const Addr line_addr = roundDown(addr, lineSize);
        const std::uint64_t in_line = addr - line_addr;
        const std::uint64_t chunk = std::min(size, lineSize - in_line);
        LineMasks &masks = masksAt(line_addr);
        const std::uint64_t bit = lineBit(line_addr);
        Line *line;
        if (masks.pending & bit) {
            line = &held(pending, line_addr)->second;
        } else {
            // First volatile touch of this line: seed the overlay with
            // what a CPU load would see, so partial-line stores keep
            // neighbouring bytes.  A copy still draining in the
            // controller is newer than media.  A media seed passes
            // through ECC, so an uncorrectable line read-modify-written
            // here propagates its damage.
            Line seed{};
            if (masks.inflight & bit) {
                seed = held(inflight, line_addr)->second.data;
            } else {
                durable.read(line_addr, seed.data(), lineSize);
                if (media)
                    media->filterRead(line_addr, seed.data(), lineSize);
            }
            line = &pending.emplace(line_addr, seed).first->second;
            masks.pending |= bit;
        }
        std::memcpy(line->data() + in_line, in, chunk);
        addr += chunk;
        in += chunk;
        size -= chunk;
    }
}

void
DurableStore::read(Addr addr, void *dst, std::uint64_t size) const
{
    auto *out = static_cast<std::uint8_t *>(dst);
    while (size > 0) {
        const Addr line_addr = roundDown(addr, lineSize);
        const std::uint64_t in_line = addr - line_addr;
        const std::uint64_t chunk = std::min(size, lineSize - in_line);
        const LineMasks *masks = masksOf(line_addr);
        const std::uint64_t bit = lineBit(line_addr);
        if (masks && (masks->pending & bit)) {
            const Line &line = held(pending, line_addr)->second;
            std::memcpy(out, line.data() + in_line, chunk);
        } else if (masks && (masks->inflight & bit)) {
            const Line &line = held(inflight, line_addr)->second.data;
            std::memcpy(out, line.data() + in_line, chunk);
        } else {
            durable.read(addr, out, chunk);
            if (media)
                media->filterRead(addr, out, chunk);
        }
        addr += chunk;
        out += chunk;
        size -= chunk;
    }
}

void
DurableStore::commitLine(Addr line_addr, Tick now, Tick drain_at)
{
    drainTo(now);
    line_addr = roundDown(line_addr, lineSize);
    const LineMasks *known = masksOf(line_addr);
    const std::uint64_t bit = lineBit(line_addr);
    if (!known || !((known->pending | known->inflight) & bit))
        return;
    LineMasks &masks = masksAt(line_addr);
    if (!(masks.pending & bit)) {
        // Nothing volatile for this line; a repeat writeback of an
        // already-buffered line just restarts its drain clock.
        Tick &at = held(inflight, line_addr)->second.drainAt;
        at = std::max(at, drain_at);
        return;
    }
    const auto it = held(pending, line_addr);
    if (masks.inflight & bit) {
        // An older copy is still draining: it stays in the same entry
        // and reaches media at its own tick, and the new copy lands
        // after it.
        Inflight &entry = held(inflight, line_addr)->second;
        entry.older.push_back({entry.data, entry.drainAt});
        entry.data = it->second;
        entry.drainAt = std::max(entry.drainAt, drain_at);
    } else {
        inflight[line_addr] = Inflight{{it->second, drain_at}, {}};
        masks.inflight |= bit;
    }
    pending.erase(it);
    masks.pending &= ~bit;
}

void
DurableStore::commitLineImmediate(Addr line_addr)
{
    line_addr = roundDown(line_addr, lineSize);
    const LineMasks *known = masksOf(line_addr);
    const std::uint64_t bit = lineBit(line_addr);
    if (!known || !((known->pending | known->inflight) & bit))
        return;
    LineMasks &masks = masksAt(line_addr);
    // The buffered copy is older than a pending one (a store after the
    // writeback), so it goes to media first and the newest copy wins.
    if (masks.inflight & bit) {
        const auto it = held(inflight, line_addr);
        for (const Copy &copy : it->second.older)
            persistLine(line_addr, copy.data);
        persistLine(line_addr, it->second.data);
        inflight.erase(it);
        masks.inflight &= ~bit;
    }
    if (masks.pending & bit) {
        const auto it = held(pending, line_addr);
        persistLine(line_addr, it->second);
        pending.erase(it);
        masks.pending &= ~bit;
    }
}

void
DurableStore::persistLine(Addr line_addr, const Line &data)
{
    durable.write(line_addr, data.data(), lineSize);
    if (media)
        media->onLineWrite(line_addr);
}

void
DurableStore::drainOlder(Addr line_addr, Inflight &entry, Tick now)
{
    auto done = entry.older.begin();
    for (; done != entry.older.end() && done->drainAt <= now; ++done)
        persistLine(line_addr, done->data);
    entry.older.erase(entry.older.begin(), done);
}

void
DurableStore::drainTo(Tick now)
{
    for (auto it = inflight.begin(); it != inflight.end();) {
        drainOlder(it->first, it->second, now);
        if (it->second.drainAt <= now) {
            persistLine(it->first, it->second.data);
            masksAt(it->first).inflight &= ~lineBit(it->first);
            it = inflight.erase(it);
        } else {
            ++it;
        }
    }
}

CrashOutcome
DurableStore::crash(Tick now, const PowerLossModel &model)
{
    CrashOutcome out;

    // Writes the device finished draining before the power cut are on
    // media and survive; collect the rest (sorted for determinism).
    std::vector<Addr> lost;
    lost.reserve(inflight.size());
    for (auto &[line_addr, entry] : inflight) {
        drainOlder(line_addr, entry, now);
        if (entry.drainAt <= now) {
            persistLine(line_addr, entry.data);
            ++out.linesDrained;
        } else {
            lost.push_back(line_addr);
        }
    }
    std::sort(lost.begin(), lost.end());
    out.linesLost = lost.size();

    if (model.tornStore && !lost.empty()) {
        // Pick one lost line (seeded) that actually changes a 64-bit
        // word relative to media, and persist only a prefix of one
        // such word — the media's write granularity is smaller than a
        // word, so a store torn mid-drain lands 1–7 of its new bytes
        // (4, the half-word tear, is one of the possibilities).
        Random rng(model.seed);
        const std::size_t start = rng.uniform(lost.size());
        for (std::size_t k = 0;
             k < lost.size() && out.tornWords == 0; ++k) {
            const Addr line_addr = lost[(start + k) % lost.size()];
            // The copy mid-drain is the oldest one still buffered.
            const Inflight &entry = inflight.at(line_addr);
            const Line &buffered =
                entry.older.empty() ? entry.data : entry.older.front().data;
            Line settled{};
            durable.read(line_addr, settled.data(), lineSize);
            std::vector<std::uint64_t> candidates;
            for (std::uint64_t off = 0; off + 8 <= lineSize; off += 8) {
                if (std::memcmp(buffered.data() + off,
                                settled.data() + off, 8) != 0) {
                    candidates.push_back(off);
                }
            }
            if (candidates.empty())
                continue;
            const std::uint64_t off =
                candidates[rng.uniform(candidates.size())];
            const std::uint64_t bytes = 1 + rng.uniform(7);
            durable.write(line_addr + off, buffered.data() + off,
                          bytes);
            if (media)
                media->onLineWrite(line_addr);
            ++out.tornWords;
        }
    }

    inflight.clear();
    pending.clear();
    for (auto &leaf : maskLeaves)
        leaf.reset();
    return out;
}

} // namespace kindle::mem
