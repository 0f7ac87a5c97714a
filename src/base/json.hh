/**
 * @file
 * A minimal streaming JSON writer, plus a small validating reader.
 *
 * Kindle's machine-readable outputs (the runner's BENCH_*.json
 * records of stat snapshots, trace files) are produced by this one
 * writer so escaping and number formatting are identical everywhere —
 * a requirement for the determinism guarantee, which compares those
 * records across runs and job counts.
 *
 * The reader exists for the tooling that *checks* those outputs: the
 * golden-file trace tests and the CI well-formedness smoke parse
 * emitted files back with json::parse().  It is a strict validator
 * for the JSON Kindle writes, not a general-purpose library — no
 * streaming, no in-place mutation, documents load fully into Value
 * trees.
 */

#ifndef KINDLE_BASE_JSON_HH
#define KINDLE_BASE_JSON_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
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
    void null();

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

/**
 * One parsed JSON value.  Objects keep their members in document
 * order (the writer emits deterministically sorted output, so order
 * round-trips); find() does a linear scan, which is fine for the
 * small metadata objects the validators inspect.
 */
class Value
{
  public:
    enum class Kind { null, boolean, number, string, array, object };

    using Member = std::pair<std::string, Value>;

    Value() = default;

    Kind kind() const { return _kind; }
    bool isNull() const { return _kind == Kind::null; }
    bool isBool() const { return _kind == Kind::boolean; }
    bool isNumber() const { return _kind == Kind::number; }
    bool isString() const { return _kind == Kind::string; }
    bool isArray() const { return _kind == Kind::array; }
    bool isObject() const { return _kind == Kind::object; }

    bool asBool() const { return _bool; }
    double asNumber() const { return _number; }
    const std::string &asString() const { return _string; }

    /** Array elements (empty unless isArray()). */
    const std::vector<Value> &items() const { return _items; }

    /** Object members in document order (empty unless isObject()). */
    const std::vector<Member> &members() const { return _members; }

    /** Member value by key, or nullptr when absent / not an object. */
    const Value *find(std::string_view key) const;

    /** @name Construction helpers used by the parser. */
    /// @{
    static Value makeNull() { return Value(); }
    static Value makeBool(bool b);
    static Value makeNumber(double v);
    static Value makeString(std::string s);
    static Value makeArray(std::vector<Value> items);
    static Value makeObject(std::vector<Member> members);
    /// @}

  private:
    Kind _kind = Kind::null;
    bool _bool = false;
    double _number = 0;
    std::string _string;
    std::vector<Value> _items;
    std::vector<Member> _members;
};

/**
 * Parse one complete JSON document.  Trailing non-whitespace after
 * the document, malformed literals, bad escapes and unbalanced
 * containers all fail; on failure returns nullopt and, when @p err is
 * non-null, stores a message with the byte offset of the problem.
 */
std::optional<Value> parse(std::string_view text,
                           std::string *err = nullptr);

} // namespace kindle::json

#endif // KINDLE_BASE_JSON_HH
