/**
 * @file
 * Minimal string-formatting helpers.
 *
 * The toolchain in use lacks std::format, so Kindle provides csprintf(),
 * a type-safe "{}" substituting formatter in the spirit of gem5's
 * csprintf, plus a few small string utilities used by the reporting
 * code in benches and stats.
 */

#ifndef KINDLE_BASE_STR_HH
#define KINDLE_BASE_STR_HH

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace kindle
{

namespace detail
{

/** Terminal case: no arguments left; emit the rest of the format. */
void formatRest(std::ostringstream &os, std::string_view fmt);

/** Recursive case: substitute the next "{}" with @p first. */
template <typename First, typename... Rest>
void
formatRest(std::ostringstream &os, std::string_view fmt, First &&first,
           Rest &&...rest)
{
    const auto pos = fmt.find("{}");
    if (pos == std::string_view::npos) {
        // More args than placeholders: append remaining args at the end
        // separated by spaces rather than silently dropping them.
        os << fmt << ' ' << first;
        formatRest(os, std::string_view{}, std::forward<Rest>(rest)...);
        return;
    }
    os << fmt.substr(0, pos) << first;
    formatRest(os, fmt.substr(pos + 2), std::forward<Rest>(rest)...);
}

} // namespace detail

/**
 * Format @p fmt, replacing each "{}" with the next argument, streamed
 * via operator<<.  Surplus placeholders are kept verbatim; surplus
 * arguments are appended.
 */
template <typename... Args>
std::string
csprintf(std::string_view fmt, Args &&...args)
{
    std::ostringstream os;
    detail::formatRest(os, fmt, std::forward<Args>(args)...);
    return os.str();
}

/** Split @p s on @p sep, keeping empty fields. */
std::vector<std::string> split(std::string_view s, char sep);

/** Strip leading and trailing whitespace. */
std::string trim(std::string_view s);

/** Render a byte count as a human friendly string, e.g. "512MiB". */
std::string sizeToString(std::uint64_t bytes);

/** Render a fixed-precision double (reporting helper). */
std::string fixed(double v, int precision = 2);

/**
 * Parse @p text as a whole decimal number in [@p lo, @p hi].  Fatal,
 * naming @p origin (the flag), on an empty string, a sign, trailing
 * characters or a value out of range.
 */
std::uint64_t parseNumber(const char *text, const char *origin,
                          std::uint64_t lo, std::uint64_t hi);

} // namespace kindle

#endif // KINDLE_BASE_STR_HH
