#include "base/json.hh"

#include <cmath>
#include <cstdio>

#include "base/logging.hh"

namespace kindle::json
{

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
formatNumber(double v)
{
    if (!std::isfinite(v))
        return "null";  // JSON has no inf/nan; stats never produce them
    // Counters dominate Kindle stats: print integral values exactly.
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
Writer::newline()
{
    out << '\n';
    for (std::size_t i = 0; i < scopes.size(); ++i)
        for (int s = 0; s < indentWidth; ++s)
            out << ' ';
}

void
Writer::beforeValue()
{
    if (scopes.empty()) {
        kindle_assert(!keyPending, "json: key outside any object");
        return;
    }
    if (scopes.back() == Scope::object) {
        kindle_assert(keyPending,
                      "json: object member needs a key() first");
        keyPending = false;
        return;
    }
    // Array element.
    if (scopeHasItems.back())
        out << ',';
    scopeHasItems.back() = true;
    newline();
}

void
Writer::beforeContainer(Scope s)
{
    beforeValue();
    scopes.push_back(s);
    scopeHasItems.push_back(false);
}

void
Writer::beginObject()
{
    beforeContainer(Scope::object);
    out << '{';
}

void
Writer::endObject()
{
    kindle_assert(!scopes.empty() && scopes.back() == Scope::object,
                  "json: endObject without a matching beginObject");
    kindle_assert(!keyPending, "json: dangling key at endObject");
    const bool had = scopeHasItems.back();
    scopes.pop_back();
    scopeHasItems.pop_back();
    if (had)
        newline();
    out << '}';
}

void
Writer::beginArray()
{
    beforeContainer(Scope::array);
    out << '[';
}

void
Writer::endArray()
{
    kindle_assert(!scopes.empty() && scopes.back() == Scope::array,
                  "json: endArray without a matching beginArray");
    const bool had = scopeHasItems.back();
    scopes.pop_back();
    scopeHasItems.pop_back();
    if (had)
        newline();
    out << ']';
}

void
Writer::key(std::string_view k)
{
    kindle_assert(!scopes.empty() && scopes.back() == Scope::object,
                  "json: key() outside an object");
    kindle_assert(!keyPending, "json: two keys in a row");
    if (scopeHasItems.back())
        out << ',';
    scopeHasItems.back() = true;
    newline();
    out << '"' << escape(k) << "\": ";
    keyPending = true;
}

void
Writer::value(std::string_view s)
{
    beforeValue();
    out << '"' << escape(s) << '"';
}

void
Writer::value(double v)
{
    beforeValue();
    out << formatNumber(v);
}

void
Writer::value(std::uint64_t v)
{
    beforeValue();
    out << v;
}

void
Writer::value(std::int64_t v)
{
    beforeValue();
    out << v;
}

void
Writer::value(bool b)
{
    beforeValue();
    out << (b ? "true" : "false");
}

} // namespace kindle::json
