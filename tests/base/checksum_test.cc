/**
 * @file
 * Edge cases for the FNV-1a checksum recovery trusts: the empty
 * buffer, every torn-prefix width below one word, and independence
 * from source alignment.  These are exactly the shapes the durable
 * validators feed it — a torn line tail can leave any 1..7 byte
 * prefix of a field, and readDurableBuf hands out unaligned windows.
 */

#include <array>
#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "base/checksum.hh"

namespace kindle
{
namespace
{

TEST(Checksum, EmptyBufferIsOffsetBasis)
{
    // FNV-1a of zero bytes is the offset basis by definition; a
    // validator checksumming a zero-length region must not read the
    // pointer at all (nullptr is legal here).
    EXPECT_EQ(checksum32(nullptr, 0), 0x811c9dc5u);
    const char unused = 'x';
    EXPECT_EQ(checksum32(&unused, 0), 0x811c9dc5u);
}

TEST(Checksum, KnownVectors)
{
    // Published FNV-1a test vectors pin the byte order and constants.
    EXPECT_EQ(checksum32("a", 1), 0xe40c292cu);
    EXPECT_EQ(checksum32("foobar", 6), 0xbf9cf968u);
}

TEST(Checksum, TornPrefixWidthsAllDistinct)
{
    // A torn 8-byte field can survive as any shorter prefix.  Each
    // width must hash differently from every other width, or the
    // validator could accept a torn value as intact.
    const std::array<std::uint8_t, 8> word = {0x11, 0x22, 0x33, 0x44,
                                              0x55, 0x66, 0x77, 0x88};
    std::set<std::uint32_t> sums;
    for (std::uint64_t width = 0; width <= word.size(); ++width)
        sums.insert(checksum32(word.data(), width));
    EXPECT_EQ(sums.size(), word.size() + 1);
}

TEST(Checksum, PrefixDiffersFromZeroPadded)
{
    // Truncation is not equivalent to zero-filling the tail: the
    // 3-byte prefix and the same bytes padded to 8 with zeros must
    // disagree, because a real torn line leaves old bytes, not a
    // shorter buffer.
    const std::array<std::uint8_t, 8> padded = {0xde, 0xad, 0xbe, 0, 0,
                                                0, 0, 0};
    EXPECT_NE(checksum32(padded.data(), 3),
              checksum32(padded.data(), 8));
}

TEST(Checksum, AlignmentInvariance)
{
    // Same bytes, every possible misalignment within a word: the
    // checksum is over values, not addresses.
    const std::array<std::uint8_t, 16> payload = {
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
    const std::uint32_t reference =
        checksum32(payload.data(), payload.size());
    alignas(8) std::array<std::uint8_t, 32> arena{};
    for (std::uint64_t off = 0; off < 8; ++off) {
        std::memcpy(arena.data() + off, payload.data(),
                    payload.size());
        EXPECT_EQ(checksum32(arena.data() + off, payload.size()),
                  reference)
            << "offset " << off;
    }
}

TEST(Checksum, SingleBitFlipChangesSum)
{
    // The media model's whole point: a one-bit upset in a durable
    // structure must be visible to its checksum.
    std::array<std::uint8_t, 64> line{};
    line.fill(0xa5);
    const std::uint32_t good = checksum32(line.data(), line.size());
    for (const std::uint64_t bit : {0ull, 17ull, 511ull}) {
        auto flipped = line;
        flipped[bit / 8] ^= std::uint8_t(1u << (bit % 8));
        EXPECT_NE(checksum32(flipped.data(), flipped.size()), good)
            << "bit " << bit;
    }
}

TEST(Checksum, SelfChecksumZeroesOnlyTheChecksumField)
{
    // A durable record's checksum covers its bytes with the checksum
    // field read as zero, whatever that field holds.
    struct Record
    {
        std::uint32_t magic = 0x4c474844;
        std::uint32_t checksum = 0;
        std::uint64_t payload = 0x0123456789abcdefULL;
    };
    Record rec;
    const std::uint32_t zeroed = checksum32(&rec, sizeof(rec));
    EXPECT_EQ(selfChecksum32(rec), zeroed);
    rec.checksum = 0xdeadbeef;
    EXPECT_EQ(selfChecksum32(rec), zeroed);
    EXPECT_EQ(rec.checksum, 0xdeadbeefu);  // taken by value
    rec.payload ^= 1;
    EXPECT_NE(selfChecksum32(rec), zeroed);
}

} // namespace
} // namespace kindle
