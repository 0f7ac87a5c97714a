/**
 * @file
 * A minimal streaming JSON writer.
 *
 * Kindle's machine-readable outputs (the runner's BENCH_*.json
 * records of stat snapshots, trace files, flight-recorder dumps,
 * telemetry series) are produced by this one writer so escaping and
 * number formatting are identical everywhere — a requirement for the
 * determinism guarantee, which compares those records across runs and
 * job counts.  Kindle reads none of them back: the Python tooling
 * under scripts/ checks them (bench_diff.py the BENCH records,
 * check_trace_json.py the trace and flight-recorder files).
 */

#ifndef KINDLE_BASE_JSON_HH
#define KINDLE_BASE_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace kindle::json
{

/** Escape @p s for embedding inside a JSON string literal. */
std::string escape(std::string_view s);

/**
 * Render a double deterministically: integral values print without a
 * fraction, everything else with enough digits to round-trip.
 */
std::string formatNumber(double v);

/**
 * Event-driven writer with automatic comma/indent handling.
 *
 *   json::Writer w(os);
 *   w.beginObject();
 *   w.key("ticks");   w.value(std::uint64_t(42));
 *   w.key("points");  w.beginArray(); ... w.endArray();
 *   w.endObject();
 *
 * Misuse (value without a key inside an object, unbalanced close)
 * trips an assertion.
 */
class Writer
{
  public:
    explicit Writer(std::ostream &os, int indent_width = 2)
        : out(os), indentWidth(indent_width)
    {}

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Name the next member of the enclosing object. */
    void key(std::string_view k);

    void value(std::string_view s);
    void value(const char *s) { value(std::string_view(s)); }
    void value(const std::string &s) { value(std::string_view(s)); }
    void value(double v);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(int v) { value(static_cast<std::int64_t>(v)); }
    void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }
    void value(bool b);

    /** key() + value() in one call. */
    template <typename T>
    void
    keyValue(std::string_view k, const T &v)
    {
        key(k);
        value(v);
    }

    /** True once every opened scope has been closed again. */
    bool balanced() const { return scopes.empty(); }

  private:
    enum class Scope { object, array };

    void beforeValue();
    void beforeContainer(Scope s);
    void newline();

    std::ostream &out;
    int indentWidth;
    std::vector<Scope> scopes;
    std::vector<bool> scopeHasItems;
    bool keyPending = false;
};

} // namespace kindle::json

#endif // KINDLE_BASE_JSON_HH
