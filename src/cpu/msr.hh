/**
 * @file
 * Model-specific registers.
 *
 * The SSP prototype uses MSRs to tell the translation hardware which
 * virtual address range holds NVM allocations and where the SSP cache
 * metadata region lives, exactly as described in §III-B of the paper.
 */

#ifndef KINDLE_CPU_MSR_HH
#define KINDLE_CPU_MSR_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace kindle::cpu
{

/**
 * Kindle's MSRs, numbered densely.  The architectural numbers sit in
 * the vendor-specific range: 0xc0000100-0xc0000103 for the SSP
 * registers, 0xc0000110 for hsccEnable.
 */
enum class MsrId : std::uint8_t
{
    sspNvmRangeStart,
    sspNvmRangeEnd,
    sspCacheBase,
    sspEnable,
    hsccEnable,
    count,
};

/** A small MSR file; unwritten MSRs read as zero. */
class MsrFile
{
  public:
    std::uint64_t
    read(MsrId id) const
    {
        return regs[static_cast<std::size_t>(id)];
    }

    void
    write(MsrId id, std::uint64_t value)
    {
        regs[static_cast<std::size_t>(id)] = value;
    }

    /** Volatile: cleared by crash/reboot. */
    void reset() { regs.fill(0); }

  private:
    std::array<std::uint64_t, static_cast<std::size_t>(MsrId::count)>
        regs{};
};

} // namespace kindle::cpu

#endif // KINDLE_CPU_MSR_HH
