/**
 * @file
 * Bit-manipulation helpers used by page-table entries, TLB metadata
 * and the SSP cache-line bitmaps.
 */

#ifndef KINDLE_BASE_BITFIELD_HH
#define KINDLE_BASE_BITFIELD_HH

#include <cstdint>

namespace kindle
{

/** A mask with the low @p nbits bits set. nbits may be 0..64. */
constexpr std::uint64_t
mask(unsigned nbits)
{
    return nbits >= 64 ? ~std::uint64_t(0)
                       : ((std::uint64_t(1) << nbits) - 1);
}

/** Extract bits [last:first] (inclusive) of @p val. */
constexpr std::uint64_t
bits(std::uint64_t val, unsigned last, unsigned first)
{
    return (val >> first) & mask(last - first + 1);
}

/** Extract the single bit @p n of @p val. */
constexpr bool
bit(std::uint64_t val, unsigned n)
{
    return (val >> n) & 1;
}

/** Return @p val with bits [last:first] replaced by @p field. */
constexpr std::uint64_t
insertBits(std::uint64_t val, unsigned last, unsigned first,
           std::uint64_t field)
{
    const std::uint64_t m = mask(last - first + 1) << first;
    return (val & ~m) | ((field << first) & m);
}

/** Return @p val with bit @p n set to @p b. */
constexpr std::uint64_t
setBit(std::uint64_t val, unsigned n, bool b = true)
{
    return b ? (val | (std::uint64_t(1) << n))
             : (val & ~(std::uint64_t(1) << n));
}

/**
 * Population count, branch-free (SWAR: sum bits in pairs, nibbles,
 * bytes, then add the bytes with one multiply).  std::popcount on the
 * baseline x86-64 target is an out-of-line libgcc call.
 */
constexpr unsigned
popCount(std::uint64_t v)
{
    v -= (v >> 1) & 0x5555555555555555ull;
    v = (v & 0x3333333333333333ull) + ((v >> 2) & 0x3333333333333333ull);
    v = (v + (v >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return static_cast<unsigned>((v * 0x0101010101010101ull) >> 56);
}

static_assert(mask(0) == 0);
static_assert(mask(12) == 0xfff);
static_assert(bits(0xabcd, 15, 12) == 0xa);
static_assert(insertBits(0, 15, 12, 0xa) == 0xa000);
static_assert(popCount(0xf0f0) == 8);
static_assert(popCount(0) == 0);
static_assert(popCount(~std::uint64_t(0)) == 64);
static_assert(setBit(0, 3) == 8);

} // namespace kindle

#endif // KINDLE_BASE_BITFIELD_HH
