#include "persist/saved_state.hh"

#include <algorithm>
#include <cstring>

#include "base/checksum.hh"
#include "base/logging.hh"
#include "fault/fault.hh"

namespace kindle::persist
{

namespace
{

/** Byte offsets of the two contexts inside a slot. */
constexpr std::uint64_t contextOffset[2] = {256, 8192};

using ContextImage = SavedStateSlot::ContextImage;

/** Serialized length of an image's populated prefix. */
std::uint64_t
serializedBytes(std::uint32_t vma_count)
{
    return offsetof(ContextImage, vmas) +
           std::uint64_t(vma_count) * sizeof(SerializedVma);
}

} // namespace

const char *
ptSchemeName(PtScheme s)
{
    return s == PtScheme::rebuild ? "rebuild" : "persistent";
}

const char *
imageStatusName(ImageStatus s)
{
    switch (s) {
      case ImageStatus::ok: return "ok";
      case ImageStatus::empty: return "empty";
      case ImageStatus::quarantined: return "quarantined";
      case ImageStatus::badChecksum: return "badChecksum";
      case ImageStatus::badCount: return "badCount";
    }
    return "?";
}

SavedStateSlot::SavedStateSlot(os::KernelMem &kmem_arg,
                               const os::NvmLayout &layout_arg,
                               unsigned slot_idx)
    : kmem(kmem_arg), layout(layout_arg), slotIdx(slot_idx)
{
    kindle_assert(slot_idx < layout_arg.procSlots,
                  "slot index out of range");
    static_assert(sizeof(ContextImage) <
                      contextOffset[1] - contextOffset[0],
                  "context serialization overflows its slot half");
    static_assert(contextOffset[1] + sizeof(ContextImage) <
                      os::savedStateSlotBytes,
                  "context serialization overflows the slot");
}

Addr
SavedStateSlot::headerAddr() const
{
    return layout.slotAddr(slotIdx);
}

Addr
SavedStateSlot::contextAddr(unsigned idx) const
{
    return layout.slotAddr(slotIdx) + contextOffset[idx];
}

Addr
SavedStateSlot::mappingBase() const
{
    return layout.mappingListAddr(slotIdx);
}

void
SavedStateSlot::writeHeader(std::optional<fault::SiteId> pre_fence_site)
{
    shadow.checksum = selfChecksum32(shadow);
    kmem.writeBufDurable(headerAddr(), &shadow, sizeof(shadow),
                         pre_fence_site);
}

void
SavedStateSlot::initialize(Pid pid, const std::string &name,
                           PtScheme scheme)
{
    shadow = SlotHeader{};
    shadow.magic = SlotHeader::magicValue;
    shadow.valid = SlotHeader::validLive;
    shadow.pid = pid;
    shadow.consistentIdx = 0;
    shadow.scheme = static_cast<std::uint32_t>(scheme);
    std::strncpy(shadow.name, name.c_str(), sizeof(shadow.name) - 1);
    writeHeader();
}

void
SavedStateSlot::writeWorkingContext(const SavedContext &ctx)
{
    kindle_assert(ctx.vmas.size() <= maxVmasPerContext,
                  "process has more VMAs than a context can hold");
    const unsigned working = shadow.consistentIdx ^ 1u;
    // Only the populated prefix of the VMA array needs to travel.
    ContextImage img;
    img.regs = ctx.regs;
    img.vmaCount = static_cast<std::uint32_t>(ctx.vmas.size());
    img.faseActive = ctx.faseActive ? 1 : 0;
    std::copy(ctx.vmas.begin(), ctx.vmas.end(), img.vmas.begin());
    const std::uint64_t bytes = serializedBytes(img.vmaCount);
    img.checksum = checksum32(&img, bytes);

    // Same timing as one writeBufDurable (write + per-line clwb + one
    // fence), but with a crash site between the two halves of the
    // flush — the working copy is the component most likely to be
    // caught half-written by a real power cut.
    const Addr addr = contextAddr(working);
    kmem.writeBuf(addr, &img, bytes);
    const Addr first = roundDown(addr, lineSize);
    const Addr last = roundDown(addr + bytes - 1, lineSize);
    const Addr mid = roundDown(first + (last - first) / 2, lineSize);
    for (Addr line = first; line <= mid; line += lineSize)
        kmem.clwb(line);
    KINDLE_CRASH_SITE("slot.mid_working_write");
    for (Addr line = mid + lineSize; line <= last; line += lineSize)
        kmem.clwb(line);
    kmem.sfence();
}

void
SavedStateSlot::commit()
{
    shadow.consistentIdx ^= 1u;
    ++shadow.generation;
    writeHeader(fault::siteId("slot.commit_pre_fence"));
}

void
SavedStateSlot::setPtRoot(Addr root)
{
    shadow.ptRoot = root;
    writeHeader();
}

void
SavedStateSlot::invalidate()
{
    shadow.valid = SlotHeader::validDead;
    writeHeader();
}

void
SavedStateSlot::quarantine()
{
    // Force a well-formed quarantine marker even when the durable
    // header bytes were garbage — the fence must stick across reboots.
    shadow.magic = SlotHeader::magicValue;
    shadow.valid = SlotHeader::validQuarantined;
    writeHeader();
}

void
SavedStateSlot::writeMappingEntry(std::uint64_t index,
                                  const MappingEntry &e,
                                  bool charge_scan)
{
    const Addr addr = mappingBase() + index * sizeof(MappingEntry);
    kindle_assert(addr + sizeof(MappingEntry) <=
                      mappingBase() + layout.mappingListBytesPerProc,
                  "mapping list overflow: entry {}", index);
    if (charge_scan) {
        // Check-and-update semantics: position the entry by scanning
        // the list maintained so far (the gemOS implementation keeps
        // a plain list, so maintenance cost grows with the number of
        // mappings — the paper's "overhead to maintain this list
        // increases with increase in mapped virtual memory area
        // size").  The scan runs through the cache hierarchy; charge
        // its bandwidth analytically.
        constexpr Tick scanPerExistingEntry = 1000;  // ps
        kmem.simulation().bump(index * scanPerExistingEntry);
    }
    // Verify the current slot (non-temporal read) and write the
    // fresh association durably.
    kmem.chargeUncachedRead(addr);
    kmem.writeBufDurable(addr, &e, sizeof(e));
}

void
SavedStateSlot::finalizeMappingList(std::uint64_t count)
{
    shadow.mappingCount = count;
    kmem.writeBufDurable(headerAddr(), &shadow, sizeof(shadow));
}

SlotHeader
SavedStateSlot::readHeader()
{
    SlotHeader hdr{};
    kmem.readDurableBuf(headerAddr(), &hdr, sizeof(hdr));
    shadow = hdr;
    return hdr;
}

ImageStatus
SavedStateSlot::verifyHeader(const SlotHeader &hdr)
{
    if (hdr.magic != SlotHeader::magicValue ||
        hdr.valid == SlotHeader::validDead) {
        return ImageStatus::empty;
    }
    if (hdr.checksum != selfChecksum32(hdr))
        return ImageStatus::badChecksum;
    if (hdr.valid == SlotHeader::validQuarantined)
        return ImageStatus::quarantined;
    if (hdr.consistentIdx > 1 || hdr.valid != SlotHeader::validLive)
        return ImageStatus::badCount;
    return ImageStatus::ok;
}

ImageStatus
SavedStateSlot::readConsistentContext(const SlotHeader &hdr,
                                      SavedContext &out,
                                      std::uint32_t *stored_vmas)
{
    ContextImage img;
    kmem.readDurableBuf(contextAddr(hdr.consistentIdx & 1u), &img,
                        sizeof(img));
    if (stored_vmas)
        *stored_vmas = img.vmaCount;
    if (img.vmaCount > maxVmasPerContext)
        return ImageStatus::badCount;
    const std::uint32_t stored_sum = img.checksum;
    img.checksum = 0;
    if (stored_sum != checksum32(&img, serializedBytes(img.vmaCount)))
        return ImageStatus::badChecksum;
    out.regs = img.regs;
    out.faseActive = img.faseActive != 0;
    out.vmas.assign(img.vmas.begin(), img.vmas.begin() + img.vmaCount);
    return ImageStatus::ok;
}

ImageStatus
SavedStateSlot::readMappingList(const SlotHeader &hdr,
                                std::vector<MappingEntry> &out)
{
    out.clear();
    if (hdr.mappingCount > maxMappingEntries())
        return ImageStatus::badCount;
    out.resize(hdr.mappingCount);
    if (hdr.mappingCount > 0) {
        kmem.readDurableBuf(mappingBase(), out.data(),
                            out.size() * sizeof(MappingEntry));
    }
    return ImageStatus::ok;
}

bool
sameContext(const SavedContext &a, const SavedContext &b)
{
    return a.regs == b.regs && a.faseActive == b.faseActive &&
           std::equal(a.vmas.begin(), a.vmas.end(), b.vmas.begin(),
                      b.vmas.end(),
                      [](const SerializedVma &x, const SerializedVma &y) {
                          return x.start == y.start && x.end == y.end &&
                                 x.prot == y.prot && x.nvm == y.nvm &&
                                 x.areaId == y.areaId;
                      });
}

SavedContext
SavedStateSlot::snapshot(const os::Process &proc,
                         const cpu::CpuState &regs)
{
    kindle_assert(proc.aspace.count() <= maxVmasPerContext,
                  "process has more VMAs than a context can hold");
    SavedContext ctx;
    ctx.regs = regs;
    ctx.faseActive = proc.faseActive;
    ctx.vmas.reserve(proc.aspace.count());
    proc.aspace.forEach([&](const os::Vma &vma) {
        SerializedVma &s = ctx.vmas.emplace_back();
        s.start = vma.range.start();
        s.end = vma.range.end();
        s.prot = vma.prot;
        s.nvm = vma.nvm ? 1 : 0;
        s.areaId = vma.areaId;
    });
    return ctx;
}

void
SavedStateSlot::restoreAspace(os::Process &proc, const SavedContext &ctx)
{
    for (const SerializedVma &s : ctx.vmas) {
        os::Vma vma;
        vma.range = AddrRange(s.start, s.end);
        vma.prot = s.prot;
        vma.nvm = s.nvm != 0;
        vma.areaId = s.areaId;
        proc.aspace.insert(vma);
    }
    proc.faseActive = ctx.faseActive;
}

} // namespace kindle::persist
