#include "base/str.hh"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iomanip>

#include "base/logging.hh"

namespace kindle
{

namespace detail
{

void
formatRest(std::ostringstream &os, std::string_view fmt)
{
    os << fmt;
}

} // namespace detail

std::vector<std::string>
split(std::string_view s, char sep)
{
    std::vector<std::string> out;
    std::size_t begin = 0;
    while (true) {
        const auto pos = s.find(sep, begin);
        if (pos == std::string_view::npos) {
            out.emplace_back(s.substr(begin));
            return out;
        }
        out.emplace_back(s.substr(begin, pos - begin));
        begin = pos + 1;
    }
}

std::string
trim(std::string_view s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return std::string(s.substr(b, e - b));
}

std::string
sizeToString(std::uint64_t bytes)
{
    static constexpr const char *suffix[] = {"B", "KiB", "MiB", "GiB",
                                             "TiB"};
    unsigned idx = 0;
    std::uint64_t v = bytes;
    while (v >= 1024 && (v % 1024) == 0 && idx < 4) {
        v /= 1024;
        ++idx;
    }
    std::ostringstream os;
    os << v << suffix[idx];
    return os.str();
}

std::string
fixed(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

std::uint64_t
parseNumber(const char *text, const char *origin, std::uint64_t lo,
            std::uint64_t hi)
{
    // strtoull alone reads "12x" as 12 and "abc" as 0, and wraps "-1".
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE ||
        std::strchr(text, '-') != nullptr || v < lo || v > hi) {
        kindle_fatal("{}: bad number '{}' (want {})", origin, text,
                     hi == ~std::uint64_t(0) ? csprintf("{} or more", lo)
                                             : csprintf("{}..{}", lo, hi));
    }
    return v;
}

} // namespace kindle
