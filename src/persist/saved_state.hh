/**
 * @file
 * The per-process saved state kept in NVM.
 *
 * Each process owns one fixed slot in the saved-state directory with a
 * header and *two* serialized execution contexts — one consistent copy
 * and one working copy.  A checkpoint writes the working copy and then
 * atomically flips `consistentIdx` in the header (single durable line
 * write), so a crash at any instant leaves one complete context intact.
 * The virtual→NVM-physical page mapping list lives in its own region
 * and is what the *rebuild* scheme uses to reconstruct the page table
 * after reboot.
 */

#ifndef KINDLE_PERSIST_SAVED_STATE_HH
#define KINDLE_PERSIST_SAVED_STATE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "cpu/core.hh"
#include "os/kernel_mem.hh"
#include "os/nvm_layout.hh"
#include "os/process.hh"

namespace kindle::persist
{

/** How the page table is kept consistent across restarts. */
enum class PtScheme : std::uint32_t
{
    rebuild = 0,    ///< PT in DRAM; rebuilt from the mapping list
    persistent = 1, ///< PT in NVM; every store consistency-wrapped
};

const char *ptSchemeName(PtScheme s);

/** Fixed-size serialized VMA. */
struct SerializedVma
{
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint32_t prot = 0;
    std::uint32_t nvm = 0;
    std::uint32_t areaId = 0;
    std::uint32_t pad = 0;
};

static_assert(sizeof(SerializedVma) == 32);

/** VMAs representable per context (gemOS processes are small). */
constexpr unsigned maxVmasPerContext = 96;

/**
 * One serialized execution context.  The checksum covers the populated
 * serialized prefix (with the checksum field itself zeroed) so recovery
 * can tell a half-written working copy from a trustworthy one.
 */
struct SavedContext
{
    cpu::CpuState regs;
    std::uint32_t vmaCount = 0;
    std::uint32_t faseActive = 0;
    std::uint32_t checksum = 0;
    std::uint32_t pad = 0;
    std::array<SerializedVma, maxVmasPerContext> vmas{};
};

/** Field-wise equality of the serialized state: registers, FASE flag
 *  and the populated VMA prefix (padding and the checksum field are
 *  not compared; memcmp would read indeterminate bytes). */
bool sameContext(const SavedContext &a, const SavedContext &b);

/**
 * Slot header; one durable line.  checksum is FNV-1a over the header
 * with the checksum field zeroed; generation counts commits so an
 * oracle (or operator) can tell *which* checkpoint a recovered image
 * corresponds to.
 */
struct SlotHeader
{
    std::uint32_t magic = 0;
    std::uint32_t valid = 0;
    std::uint32_t pid = 0;
    std::uint32_t consistentIdx = 0;
    std::uint64_t ptRoot = 0;        ///< persistent scheme only
    std::uint64_t mappingCount = 0;  ///< rebuild scheme only
    std::uint32_t scheme = 0;
    std::uint32_t checksum = 0;
    std::uint64_t generation = 0;    ///< committed checkpoints
    char name[16] = {};

    static constexpr std::uint32_t magicValue = 0x534c4f54;  // "SLOT"
    static constexpr std::uint32_t validDead = 0;
    static constexpr std::uint32_t validLive = 1;
    /** Recovery found the image untrustworthy and fenced it off. */
    static constexpr std::uint32_t validQuarantined = 2;
};

static_assert(sizeof(SlotHeader) == 64, "header must be line sized");

/** Verdict on one durable image component (header/context/mappings). */
enum class ImageStatus
{
    ok,            ///< validates; safe to act on
    empty,         ///< never initialized / cleanly invalidated
    quarantined,   ///< fenced off by an earlier salvage pass
    badChecksum,   ///< stored checksum does not match the bytes
    badCount,      ///< an embedded count exceeds its container
};

const char *imageStatusName(ImageStatus s);

/** One (vpn → NVM pfn) association in the mapping list. */
struct MappingEntry
{
    std::uint64_t vpn = 0;
    std::uint64_t pfn = 0;
};

static_assert(sizeof(MappingEntry) == 16);

/**
 * Accessor for one process's slot + mapping list.  All writes are
 * durable (store + clwb + fence) and charged to simulated time; reads
 * used by recovery come from the post-crash durable image.
 */
class SavedStateSlot
{
  public:
    SavedStateSlot(os::KernelMem &kmem, const os::NvmLayout &layout,
                   unsigned slot_idx);

    unsigned slotIndex() const { return slotIdx; }

    /** @name Checkpoint-side (durable writes, timed). */
    /// @{
    /** Initialize the header for a new process. */
    void initialize(Pid pid, const std::string &name, PtScheme scheme);

    /** Write @p ctx into the working (non-consistent) copy. */
    void writeWorkingContext(const SavedContext &ctx);

    /** Atomically make the working copy the consistent one. */
    void commit();

    /** Record the persistent-scheme page-table root. */
    void setPtRoot(Addr root);

    /** Mark the slot dead (process exited cleanly). */
    void invalidate();

    /** Fence off an untrustworthy image (salvage-mode recovery). */
    void quarantine();

    /**
     * Append one mapping entry during the rebuild-scheme traversal.
     * The caller finishes with finalizeMappingList().
     * @param charge_scan Model the plain-list positioning scan (the
     *        paper's implementation); indexed maintenance (the
     *        incremental extension) passes false.
     */
    void writeMappingEntry(std::uint64_t index, const MappingEntry &e,
                           bool charge_scan = true);

    /** Durably publish the entry count. */
    void finalizeMappingList(std::uint64_t count);
    /// @}

    /** @name Recovery-side (durable reads, timed). */
    /// @{
    /** Read the raw durable header (also refreshes the shadow). */
    SlotHeader readHeader();

    /** Classify a header read from the durable image. */
    static ImageStatus verifyHeader(const SlotHeader &hdr);

    /**
     * Read + validate the consistent context named by the header.
     * @p out is only meaningful when the result is ImageStatus::ok.
     */
    ImageStatus readConsistentContext(const SlotHeader &hdr,
                                      SavedContext &out);

    /** Convenience wrapper that fatals on a non-ok context. */
    SavedContext readConsistentContext(const SlotHeader &hdr);

    /**
     * Read + bounds-check the durable mapping list.  @p out is only
     * meaningful when the result is ImageStatus::ok.
     */
    ImageStatus readMappingList(const SlotHeader &hdr,
                                std::vector<MappingEntry> &out);

    /** Convenience wrapper that fatals on a non-ok list. */
    std::vector<MappingEntry> readMappingList(const SlotHeader &hdr);

    /** Largest mapping count the per-process list region can hold. */
    std::uint64_t
    maxMappingEntries() const
    {
        return layout.mappingListBytesPerProc / sizeof(MappingEntry);
    }
    /// @}

    /** Serialize a live process into a SavedContext. */
    static SavedContext snapshot(const os::Process &proc,
                                 const cpu::CpuState &regs);

    /** Restore address-space layout from a context. */
    static void restoreAspace(os::Process &proc,
                              const SavedContext &ctx);

  private:
    Addr contextAddr(unsigned idx) const;
    Addr headerAddr() const;
    Addr mappingBase() const;

    /**
     * Recompute the shadow checksum and write the header durably; an
     * optional crash site fires between the clwb and the fence.
     */
    void writeHeader(const char *pre_fence_site = nullptr);

    os::KernelMem &kmem;
    const os::NvmLayout &layout;
    unsigned slotIdx;
    /** Shadow of the durable header for cheap field updates. */
    SlotHeader shadow;
};

} // namespace kindle::persist

#endif // KINDLE_PERSIST_SAVED_STATE_HH
