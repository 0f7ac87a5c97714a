/**
 * @file
 * Small integrity checksums for durable on-NVM structures.
 *
 * Recovery must decide whether a durable image is trustworthy before
 * acting on it; a 32-bit FNV-1a over the serialized bytes is cheap,
 * has no external dependencies, and is deterministic across hosts —
 * which the crash-fuzz harness relies on for byte-identical reports.
 */

#ifndef KINDLE_BASE_CHECKSUM_HH
#define KINDLE_BASE_CHECKSUM_HH

#include <cstdint>
#include <type_traits>

namespace kindle
{

/** 32-bit FNV-1a over @p size bytes at @p data. */
inline std::uint32_t
checksum32(const void *data, std::uint64_t size)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t h = 0x811c9dc5u;
    for (std::uint64_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 0x01000193u;
    }
    return h;
}

/**
 * The value a durable record's own @c checksum field must hold: FNV-1a
 * over the record's bytes with that field zeroed.
 */
template <typename T>
std::uint32_t
selfChecksum32(T rec)
{
    static_assert(std::is_trivially_copyable_v<T>);
    rec.checksum = 0;
    return checksum32(&rec, sizeof(rec));
}

} // namespace kindle

#endif // KINDLE_BASE_CHECKSUM_HH
