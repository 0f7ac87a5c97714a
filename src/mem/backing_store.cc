#include "mem/backing_store.hh"

#include <algorithm>
#include <vector>

#include "base/bitfield.hh"
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
    const unsigned count = popCount(f.mask);
    const unsigned at = popCount(f.mask & (bit - 1));
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
            const Line &line = f->lines[popCount(f->mask & (bit - 1))];
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
            line = f->lines[popCount(f->mask & (bit - 1))].data();
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

std::uint64_t &
DurableStore::pendingMaskAt(Addr line_addr)
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

std::size_t
DurableStore::inflightLines() const
{
    std::size_t lines = 0;
    for (std::size_t i = 0; i < inflight.size(); ++i)
        lines += i == 0 || inflight[i].line != inflight[i - 1].line;
    return lines;
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
        std::uint64_t &mask = pendingMaskAt(line_addr);
        const std::uint64_t bit = lineBit(line_addr);
        Line *line;
        if (mask & bit) {
            line = &held(pending, line_addr)->second;
        } else {
            // First volatile touch of this line: seed the overlay with
            // what a CPU load would see, so partial-line stores keep
            // neighbouring bytes.  A copy still draining in the
            // controller is newer than media.  A media seed passes
            // through ECC, so an uncorrectable line read-modify-written
            // here propagates its damage.
            Line seed{};
            if (const Copy *copy = newestCopy(line_addr)) {
                seed = copy->data;
            } else {
                durable.read(line_addr, seed.data(), lineSize);
                if (media)
                    media->filterRead(line_addr, seed.data(), lineSize);
            }
            line = &pending.emplace(line_addr, seed).first->second;
            mask |= bit;
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
        if (pendingMask(line_addr) & lineBit(line_addr)) {
            const Line &line = held(pending, line_addr)->second;
            std::memcpy(out, line.data() + in_line, chunk);
        } else if (const Copy *copy = newestCopy(line_addr)) {
            std::memcpy(out, copy->data.data() + in_line, chunk);
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
    const std::uint64_t bit = lineBit(line_addr);
    if (!(pendingMask(line_addr) & bit)) {
        // Nothing volatile for this line; a repeat writeback of an
        // already-buffered line just restarts its drain clock.
        if (Copy *newest = newestCopy(line_addr))
            newest->drainAt = std::max(newest->drainAt, drain_at);
        return;
    }
    // An older copy still draining reaches media at its own tick, and
    // the new copy lands after it.
    const auto after = afterCopies(line_addr);
    if (after != inflight.begin() && std::prev(after)->line == line_addr)
        drain_at = std::max(drain_at, std::prev(after)->drainAt);
    const auto it = held(pending, line_addr);
    inflight.insert(after, Copy{line_addr, drain_at, it->second});
    nextDrain = std::min(nextDrain, drain_at);
    pending.erase(it);
    pendingMaskAt(line_addr) &= ~bit;
}

void
DurableStore::commitLineImmediate(Addr line_addr)
{
    line_addr = roundDown(line_addr, lineSize);
    const std::uint64_t bit = lineBit(line_addr);
    const bool is_pending = pendingMask(line_addr) & bit;
    if (!is_pending && inflight.empty())
        return;
    // The buffered copies are older than a pending one (a store after
    // the writeback), so they go to media first and the newest wins.
    if (!inflight.empty()) {
        const auto after = afterCopies(line_addr);
        auto first = after;
        while (first != inflight.begin() &&
               std::prev(first)->line == line_addr)
            --first;
        for (auto c = first; c != after; ++c)
            persistLine(line_addr, c->data);
        inflight.erase(first, after);
    }
    if (is_pending) {
        const auto it = held(pending, line_addr);
        persistLine(line_addr, it->second);
        pending.erase(it);
        pendingMaskAt(line_addr) &= ~bit;
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
DurableStore::drainTo(Tick now)
{
    if (now < nextDrain)
        return;
    // One pass in buffer order retires the due copies and closes the
    // gaps they leave.
    Tick next = maxTick;
    auto kept = inflight.begin();
    for (auto c = inflight.begin(); c != inflight.end(); ++c) {
        if (c->drainAt > now) {
            next = std::min(next, c->drainAt);
            if (kept != c)
                *kept = *c;
            ++kept;
            continue;
        }
        persistLine(c->line, c->data);
    }
    inflight.erase(kept, inflight.end());
    nextDrain = next;
}

CrashOutcome
DurableStore::crash(Tick now, const PowerLossModel &model)
{
    CrashOutcome out;

    // Writes the device finished draining before the power cut are on
    // media and survive; the rest are lost.  @c lost holds each lost
    // line's oldest copy, in address order.
    const std::size_t buffered = inflightLines();
    drainTo(now);
    std::vector<const Copy *> lost;
    for (std::size_t i = 0; i < inflight.size(); ++i) {
        if (i == 0 || inflight[i].line != inflight[i - 1].line)
            lost.push_back(&inflight[i]);
    }
    out.linesLost = lost.size();
    out.linesDrained = buffered - out.linesLost;

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
            // The copy mid-drain is the oldest one still buffered.
            const Copy &oldest = *lost[(start + k) % lost.size()];
            const Addr line_addr = oldest.line;
            const Line &buffered = oldest.data;
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
    nextDrain = maxTick;
    pending.clear();
    for (auto &leaf : maskLeaves)
        leaf.reset();
    return out;
}

} // namespace kindle::mem
