/**
 * @file
 * NVM media reliability model implementation.
 */

#include "mem/nvm_media.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"

namespace kindle::mem
{

NvmMediaModel::NvmMediaModel(AddrRange nvm_range,
                             const fault::MediaFaultPlan &media_plan)
    : _range(nvm_range),
      plan(media_plan),
      rng(plan.seed),
      statGroup("nvmMedia", "NVM media error and wear model"),
      lineWrites(statGroup.addScalar("lineWrites",
                                     "cache lines programmed on media")),
      transientFlips(statGroup.addScalar(
          "transientFlips", "drift bit flips injected by rate")),
      stuckBits(statGroup.addScalar(
          "stuckBits", "stuck-at bits developed from wear-out")),
      demandCorrections(statGroup.addScalar(
          "demandCorrections", "single-bit errors corrected on demand reads")),
      uncorrectableReads(statGroup.addScalar(
          "uncorrectableReads", "reads that returned uncorrectable damage")),
      framesExhausted(statGroup.addScalar(
          "framesExhausted", "frames past their write-endurance budget"))
{
    for (const fault::MediaFault &f : plan.faults) {
        const Addr line = _range.start() + f.frame * pageSize +
                          f.line * lineSize;
        kindle_assert(_range.contains(line),
                      "targeted media fault outside the NVM range "
                      "(frame {}, line {})", f.frame, f.line);
        injectError(line, f.bits, f.sticky);
    }
}

std::uint64_t
NvmMediaModel::frameIndex(Addr addr) const
{
    return _range.offsetOf(addr) / pageSize;
}

void
NvmMediaModel::addBit(LineFaults &lf, std::uint16_t bit, bool sticky)
{
    auto &vec = sticky ? lf.stuck : lf.transient;
    if (std::find(vec.begin(), vec.end(), bit) == vec.end())
        vec.push_back(bit);
}

void
NvmMediaModel::onLineWrite(Addr line_addr)
{
    if (!_range.contains(line_addr))
        return;
    const Addr line = line_addr & ~static_cast<Addr>(lineSize - 1);
    ++lineWrites;

    // Re-programming the cells heals drift; stuck cells stay stuck.
    auto it = faults.find(line);
    if (it != faults.end()) {
        it->second.transient.clear();
        if (it->second.empty())
            faults.erase(it);
    }

    if (plan.writeEndurance != 0) {
        const std::uint64_t frame = frameIndex(line);
        const std::uint64_t n = ++writes[frame];
        if (n > plan.writeEndurance) {
            // Past budget, every further write risks sticking a cell.
            // The position hash keeps victims deterministic without
            // burning shared rng stream state on the common path.
            const std::uint16_t bit = static_cast<std::uint16_t>(
                (line * 0x9e3779b97f4a7c15ull >> 32) % (lineSize * 8));
            auto &lf = faults[line];
            const auto before = lf.stuck.size();
            addBit(lf, bit, true);
            if (lf.stuck.size() > before)
                ++stuckBits;
            if (n == plan.writeEndurance + 1) {
                ++framesExhausted;
                newlyExhausted.push_back(_range.start() + frame * pageSize);
            }
        }
    }

    if (plan.bitFlipRate > 0.0 && rng.chance(plan.bitFlipRate)) {
        addBit(faults[line],
               static_cast<std::uint16_t>(rng.uniform(lineSize * 8)),
               false);
        ++transientFlips;
    }
}

void
NvmMediaModel::onRangeWrite(Addr addr, std::uint64_t size)
{
    if (size == 0)
        return;
    const Addr first = addr & ~static_cast<Addr>(lineSize - 1);
    for (Addr line = first; line < addr + size; line += lineSize)
        onLineWrite(line);
}

void
NvmMediaModel::filterRead(Addr addr, void *dst, std::uint64_t size)
{
    if (size == 0 || faults.empty())
        return;
    const Addr first = addr & ~static_cast<Addr>(lineSize - 1);
    auto *bytes = static_cast<std::uint8_t *>(dst);
    for (auto it = faults.lower_bound(first);
         it != faults.end() && it->first < addr + size; ++it) {
        const Addr line = it->first;
        const LineFaults &lf = it->second;
        const std::uint64_t n = lf.transient.size() + lf.stuck.size();
        if (n == 0)
            continue;
        if (n == 1) {
            // SECDED corrects it; the caller keeps pristine data.
            ++demandCorrections;
            continue;
        }
        // Uncorrectable: flip the error bits that land inside the
        // requested window so the delivered bytes carry real damage.
        ++uncorrectableReads;
        auto flip = [&](std::uint16_t bit) {
            const Addr byte_addr = line + bit / 8;
            if (byte_addr >= addr && byte_addr < addr + size)
                bytes[byte_addr - addr] ^= 1u << (bit % 8);
        };
        for (std::uint16_t b : lf.transient)
            flip(b);
        for (std::uint16_t b : lf.stuck)
            flip(b);
    }
}

unsigned
NvmMediaModel::errorBits(Addr line_addr) const
{
    const Addr line = line_addr & ~static_cast<Addr>(lineSize - 1);
    const auto it = faults.find(line);
    if (it == faults.end())
        return 0;
    return static_cast<unsigned>(it->second.transient.size() +
                                 it->second.stuck.size());
}

unsigned
NvmMediaModel::scrubRewrite(Addr line_addr)
{
    const Addr line = line_addr & ~static_cast<Addr>(lineSize - 1);
    onLineWrite(line);
    return errorBits(line);
}

void
NvmMediaModel::injectError(Addr line_addr, unsigned bits, bool sticky)
{
    const Addr line = line_addr & ~static_cast<Addr>(lineSize - 1);
    kindle_assert(_range.contains(line),
                  "injected media error outside the NVM range");
    LineFaults &lf = faults[line];
    // Spread the requested bits across distinct positions.
    for (unsigned i = 0; i < bits; ++i) {
        addBit(lf, static_cast<std::uint16_t>(
                       (i * 97 + (line >> 6) * 13) % (lineSize * 8)),
               sticky);
    }
}

std::vector<Addr>
NvmMediaModel::takeExhaustedFrames()
{
    std::vector<Addr> out;
    out.swap(newlyExhausted);
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace kindle::mem
