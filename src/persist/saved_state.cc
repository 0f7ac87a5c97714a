#include "persist/saved_state.hh"

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

/** Serialized length of a context's populated prefix. */
std::uint64_t
serializedBytes(const SavedContext &ctx)
{
    return offsetof(SavedContext, vmas) +
           std::uint64_t(ctx.vmaCount) * sizeof(SerializedVma);
}

/** Header checksum: FNV-1a with the checksum field zeroed. */
std::uint32_t
headerChecksum(SlotHeader hdr)
{
    hdr.checksum = 0;
    return checksum32(&hdr, sizeof(hdr));
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
    static_assert(sizeof(SavedContext) <
                      contextOffset[1] - contextOffset[0],
                  "context serialization overflows its slot half");
    static_assert(contextOffset[1] + sizeof(SavedContext) <
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
SavedStateSlot::writeHeader(const char *pre_fence_site)
{
    shadow.checksum = 0;
    shadow.checksum = checksum32(&shadow, sizeof(shadow));
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
SavedStateSlot::writeWorkingContext(const SavedContext &ctx_in)
{
    const unsigned working = shadow.consistentIdx ^ 1u;
    SavedContext ctx = ctx_in;
    ctx.checksum = 0;
    // Only the populated prefix of the VMA array needs to travel.
    const std::uint64_t bytes = serializedBytes(ctx);
    ctx.checksum = checksum32(&ctx, bytes);

    // Same timing as one writeBufDurable (write + per-line clwb + one
    // fence), but with a crash site between the two halves of the
    // flush — the working copy is the component most likely to be
    // caught half-written by a real power cut.
    const Addr addr = contextAddr(working);
    kmem.writeBuf(addr, &ctx, bytes);
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
    writeHeader("slot.commit_pre_fence");
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
    kmem.read64Uncached(addr);
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
    if (hdr.checksum != headerChecksum(hdr))
        return ImageStatus::badChecksum;
    if (hdr.valid == SlotHeader::validQuarantined)
        return ImageStatus::quarantined;
    if (hdr.consistentIdx > 1 || hdr.valid != SlotHeader::validLive)
        return ImageStatus::badCount;
    return ImageStatus::ok;
}

ImageStatus
SavedStateSlot::readConsistentContext(const SlotHeader &hdr,
                                      SavedContext &out)
{
    out = SavedContext{};
    kmem.readDurableBuf(contextAddr(hdr.consistentIdx & 1u), &out,
                        sizeof(out));
    if (out.vmaCount > maxVmasPerContext)
        return ImageStatus::badCount;
    SavedContext probe = out;
    probe.checksum = 0;
    if (out.checksum != checksum32(&probe, serializedBytes(probe)))
        return ImageStatus::badChecksum;
    return ImageStatus::ok;
}

SavedContext
SavedStateSlot::readConsistentContext(const SlotHeader &hdr)
{
    SavedContext ctx;
    const ImageStatus st = readConsistentContext(hdr, ctx);
    kindle_assert(st == ImageStatus::ok,
                  "corrupt saved context in slot {}: {}", slotIdx,
                  imageStatusName(st));
    return ctx;
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

std::vector<MappingEntry>
SavedStateSlot::readMappingList(const SlotHeader &hdr)
{
    std::vector<MappingEntry> out;
    const ImageStatus st = readMappingList(hdr, out);
    kindle_assert(st == ImageStatus::ok,
                  "corrupt mapping list in slot {}: {}", slotIdx,
                  imageStatusName(st));
    return out;
}

bool
sameContext(const SavedContext &a, const SavedContext &b)
{
    if (!(a.regs == b.regs) || a.vmaCount != b.vmaCount ||
        a.faseActive != b.faseActive) {
        return false;
    }
    for (std::uint32_t i = 0; i < a.vmaCount; ++i) {
        const SerializedVma &x = a.vmas[i];
        const SerializedVma &y = b.vmas[i];
        if (x.start != y.start || x.end != y.end || x.prot != y.prot ||
            x.nvm != y.nvm || x.areaId != y.areaId) {
            return false;
        }
    }
    return true;
}

SavedContext
SavedStateSlot::snapshot(const os::Process &proc,
                         const cpu::CpuState &regs)
{
    SavedContext ctx;
    ctx.regs = regs;
    ctx.faseActive = proc.faseActive ? 1 : 0;
    ctx.vmaCount = 0;
    proc.aspace.forEach([&](const os::Vma &vma) {
        kindle_assert(ctx.vmaCount < maxVmasPerContext,
                      "process has more VMAs than a context can hold");
        SerializedVma &s = ctx.vmas[ctx.vmaCount++];
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
    for (std::uint32_t i = 0; i < ctx.vmaCount; ++i) {
        const SerializedVma &s = ctx.vmas[i];
        os::Vma vma;
        vma.range = AddrRange(s.start, s.end);
        vma.prot = s.prot;
        vma.nvm = s.nvm != 0;
        vma.areaId = s.areaId;
        proc.aspace.insert(vma);
    }
    proc.faseActive = ctx.faseActive != 0;
}

} // namespace kindle::persist
