/**
 * @file
 * NVM media reliability model: per-line error state, per-frame wear,
 * and SECDED ECC semantics.
 *
 * Real PCM does not return what was written: resistance drift flips
 * cells between refreshes, and limited write endurance leaves cells
 * stuck once a frame's write budget is exhausted.  This model keeps
 * the *pristine* data in the backing store and tracks fault metadata
 * beside it — the set of wrong bit positions per 64-byte line plus a
 * write counter per frame — so the ECC layer can decide, per read,
 * what the device actually delivers:
 *
 *   - 0 error bits: clean, pristine data returned;
 *   - 1 error bit:  SECDED corrects it — pristine data returned and a
 *     correction counted (demand or scrub, depending on who read);
 *   - 2+ error bits: uncorrectable — the returned bytes carry the
 *     real corruption (error bits XORed in), so checksum-validating
 *     consumers (recovery, the redo log) see genuine damage.
 *
 * Rewriting a line re-programs its cells: transient (drift) faults
 * clear, stuck-at faults persist.  That asymmetry is what makes the
 * patrol scrubber useful — and what forces the OS to retire frames
 * whose faults a rewrite cannot heal.
 *
 * Error state models the physical medium, so it deliberately survives
 * power loss; HybridMemory::crash() resets everything volatile but
 * leaves this model untouched.
 */

#ifndef KINDLE_MEM_NVM_MEDIA_HH
#define KINDLE_MEM_NVM_MEDIA_HH

#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/addr_range.hh"
#include "base/random.hh"
#include "base/stats.hh"
#include "fault/fault.hh"

namespace kindle::mem
{

/** ECC verdict for one line. */
enum class LineHealth
{
    clean,          ///< no error bits
    correctable,    ///< one error bit; SECDED corrects on read
    uncorrectable,  ///< two or more error bits; data is damage
};

/** The media model for one NVM device. */
class NvmMediaModel
{
  public:
    NvmMediaModel(AddrRange nvm_range, const fault::MediaFaultPlan &plan);

    const AddrRange &range() const { return _range; }

    /** @name Write side: a line's worth of data reached the media. */
    /// @{
    /** One 64B line was (re)programmed: wear + drift injection. */
    void onLineWrite(Addr line_addr);

    /** Arbitrary-span media write: onLineWrite per covered line. */
    void onRangeWrite(Addr addr, std::uint64_t size);
    /// @}

    /**
     * ECC decode on the read path.  @p dst already holds the pristine
     * bytes for [addr, addr+size); correctable lines are counted as
     * demand corrections and left pristine, uncorrectable lines get
     * their error bits XORed into the delivered bytes.
     */
    void filterRead(Addr addr, void *dst, std::uint64_t size);

    /** Error bits currently afflicting @p line_addr. */
    unsigned errorBits(Addr line_addr) const;

    LineHealth
    health(Addr line_addr) const
    {
        const unsigned n = errorBits(line_addr);
        return n == 0 ? LineHealth::clean
                      : (n == 1 ? LineHealth::correctable
                                : LineHealth::uncorrectable);
    }

    /**
     * Scrub rewrite of one line: re-program the cells (clears drift
     * faults, charges wear) and report the error bits that survive —
     * zero means the line healed, anything left is stuck.
     */
    unsigned scrubRewrite(Addr line_addr);

    /**
     * Plant @p bits error bits on a line (targeted injection / test
     * hook).  Sticky bits survive rewrites; transient bits do not.
     */
    void injectError(Addr line_addr, unsigned bits, bool sticky = true);

    /**
     * Visit every line that currently carries error bits inside
     * @p r, in ascending address order: fn(line_addr, error_bits).
     */
    template <typename Fn>
    void
    forEachFaultyLine(const AddrRange &r, Fn &&fn) const
    {
        for (auto it = faults.lower_bound(r.start());
             it != faults.end() && it->first < r.end(); ++it) {
            const unsigned n = static_cast<unsigned>(
                it->second.transient.size() + it->second.stuck.size());
            if (n > 0)
                fn(it->first, n);
        }
    }

    /**
     * Frames that crossed their endurance budget since the last call
     * (each frame reported exactly once, ascending order).  The
     * scrubber drains this and asks the OS to retire them before the
     * stuck-cell population grows past what ECC can hide.
     */
    std::vector<Addr> takeExhaustedFrames();

    statistics::StatGroup &stats() { return statGroup; }

  private:
    /** Error-bit positions (0..511) afflicting one line. */
    struct LineFaults
    {
        std::vector<std::uint16_t> transient;  ///< drift; rewrite heals
        std::vector<std::uint16_t> stuck;      ///< wear-out; permanent

        bool
        empty() const
        {
            return transient.empty() && stuck.empty();
        }
    };

    std::uint64_t frameIndex(Addr addr) const;
    void addBit(LineFaults &lf, std::uint16_t bit, bool sticky);

    AddrRange _range;
    fault::MediaFaultPlan plan;
    Random rng;

    /** Ordered so scrub walks and reports are deterministic. */
    std::map<Addr, LineFaults> faults;
    std::unordered_map<std::uint64_t, std::uint64_t> writes;
    std::unordered_set<std::uint64_t> exhausted;
    std::vector<Addr> newlyExhausted;

    statistics::StatGroup statGroup;
    statistics::Scalar &lineWrites;
    statistics::Scalar &transientFlips;
    statistics::Scalar &stuckBits;
    statistics::Scalar &demandCorrections;
    statistics::Scalar &uncorrectableReads;
    statistics::Scalar &framesExhausted;
};

} // namespace kindle::mem

#endif // KINDLE_MEM_NVM_MEDIA_HH
