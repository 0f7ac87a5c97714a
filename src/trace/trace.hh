/**
 * @file
 * The probe vocabulary and its routing, plus tick-accurate tracing:
 * protocol spans and the crash flight recorder.
 *
 * One category enum (Flag) names every probe in the tree — trace
 * spans and instants here, KINDLE_PROF_SCOPE self-profiler probes
 * (trace/profiler.hh) — and one name table drives --trace-flags, the
 * Chrome lanes, the flight dump and the prof.* stat names.
 *
 * Instrumented code holds no pointers: every probe routes through one
 * thread-local registration (Probes) naming the live system's trace
 * sink, self-profiler and crash injector.  Each KindleSystem installs
 * it once (ProbeScope) for its lifetime, so concurrent SweepRunner
 * workers each feed their own system with no sharing.  A probe with
 * no target is one thread-local load and a branch.
 *
 * Two capture modes, independently enabled:
 *
 *  - Span collection (TraceParams::spans): every record is kept and
 *    can be exported as Chrome trace-event JSON (writeChromeJson),
 *    loadable in Perfetto / chrome://tracing.  One "thread" lane per
 *    category, nesting by time containment.
 *
 *  - Flight recorder (TraceParams::ringDepth): a fixed ring of the
 *    last N records, cheap enough to leave on for every run: a probe
 *    stores its format literal and scalar arguments by value, and
 *    nothing is formatted or allocated until a dump.  When a crash
 *    injector fires, recovery reports errors, or the fuzz oracle
 *    diverges, writeFlightRecorder() turns the ring plus the fault
 *    plan and crash site into a self-contained JSON timeline of the
 *    moments before the failure.
 *
 * The sink carries a category mask (default all-on), so
 * "--trace-flags=checkpoint,redo" narrows capture to those probes.
 * Timestamps are simulated ticks (picoseconds) end to end; the Chrome
 * export converts to microseconds only at serialization.
 */

#ifndef KINDLE_TRACE_TRACE_HH
#define KINDLE_TRACE_TRACE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <new>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace kindle::fault
{
class CrashInjector;
} // namespace kindle::fault

namespace kindle::trace
{

/** Instrumentation categories.  Enum order is Chrome lane order. */
enum class Flag : unsigned
{
    event = 0,
    mem,
    cache,
    pwalk,
    vma,
    syscall,
    checkpoint,
    recovery,
    ssp,
    hscc,
    pt,
    redo,
    scrub,
    fault,
    sched,
    reclaim,
    exec,
    numFlags
};

inline constexpr unsigned numFlags = static_cast<unsigned>(Flag::numFlags);

inline constexpr std::array<const char *, numFlags> flagNames = {
    "event", "mem", "cache", "pwalk", "vma", "syscall",
    "checkpoint", "recovery", "ssp", "hscc", "pt", "redo",
    "scrub", "fault", "sched", "reclaim", "exec",
};

/** Printable name of @p f ("checkpoint", "redo", ...). */
inline const char *
flagName(Flag f)
{
    return flagNames[static_cast<unsigned>(f)];
}

/** One bit per category. */
using FlagMask = std::array<bool, numFlags>;

/**
 * Parse a comma-separated category list ("checkpoint, redo") into a
 * mask; a list naming no category means all of them.  An unknown
 * name is fatal, reported against @p origin (the flag or config
 * field it came from).
 */
FlagMask parseCategories(std::string_view names, const char *origin);

class TraceSink;
class Profiler;

/**
 * Where this thread's probes go: the live system's trace sink,
 * self-profiler and crash injector.  Any of them may be null.
 */
struct Probes
{
    TraceSink *sink = nullptr;
    Profiler *profiler = nullptr;
    fault::CrashInjector *injector = nullptr;

    bool operator==(const Probes &) const = default;
};

namespace detail
{
inline constinit thread_local Probes probes{};
} // namespace detail

/** This thread's registration (all null outside any system). */
inline const Probes &
probes()
{
    return detail::probes;
}

/**
 * RAII registration of one system's probe targets on this thread.
 * The newest registration wins outright: a null target shadows an
 * outer system's instead of leaking probes into it.  Destruction
 * restores the registration it replaced, so scopes unwind LIFO.
 */
class ProbeScope
{
  public:
    explicit ProbeScope(const Probes &targets)
        : saved(detail::probes), installed(targets)
    {
        detail::probes = targets;
    }

    ~ProbeScope()
    {
        kindle_assert(detail::probes == installed,
                      "probe scopes must unwind LIFO");
        detail::probes = saved;
    }

    ProbeScope(const ProbeScope &) = delete;
    ProbeScope &operator=(const ProbeScope &) = delete;

  private:
    Probes saved;
    Probes installed;
};

/** Most arguments one payload carries. */
inline constexpr unsigned maxTraceArgs = 4;

/**
 * A record's "k=v" payload, kept unformatted: a static format literal
 * and up to maxTraceArgs scalar arguments by value (unsigned, signed,
 * bool, double or a static C string).  format() renders it exactly as
 * csprintf would have at the probe, so a probe allocates nothing and
 * pays for text only when a dump asks for it.
 */
class TracePayload
{
  public:
    /** No payload: format() is empty. */
    TracePayload() = default;

    /** @p text's "{}" placeholders take @p args in order. */
    template <std::size_t N, typename... Args>
    explicit TracePayload(const char (&text)[N], const Args &...args)
        : fmt(text), count(sizeof...(Args))
    {
        static_assert(sizeof...(Args) <= maxTraceArgs,
                      "a trace payload carries at most 4 arguments");
        unsigned i = 0;
        (store(i++, args), ...);
    }

    /** The payload as csprintf(fmt, args...) renders it. */
    std::string format() const;

  private:
    enum class Kind : std::uint8_t
    {
        u64,
        i64,
        boolean,
        f64,
        str
    };

    union Value
    {
        std::uint64_t u;
        std::int64_t i;
        bool b;
        double d;
        const char *s;
    };

    template <typename T>
    void
    store(unsigned i, const T &v)
    {
        using D = std::decay_t<T>;
        static_assert(!std::is_same_v<D, char> &&
                          !std::is_same_v<D, signed char> &&
                          !std::is_same_v<D, unsigned char>,
                      "a char argument would print as a character");
        if constexpr (std::is_same_v<D, bool>) {
            kinds[i] = Kind::boolean;
            values[i].b = v;
        } else if constexpr (std::is_integral_v<D> &&
                             std::is_unsigned_v<D>) {
            kinds[i] = Kind::u64;
            values[i].u = v;
        } else if constexpr (std::is_integral_v<D>) {
            kinds[i] = Kind::i64;
            values[i].i = v;
        } else if constexpr (std::is_floating_point_v<D>) {
            kinds[i] = Kind::f64;
            values[i].d = v;
        } else {
            // Kept by pointer until a dump: only a string of static
            // duration (a literal, an interned name) may be passed.
            static_assert(std::is_same_v<D, const char *> ||
                              std::is_same_v<D, char *>,
                          "trace arguments are scalars or static C "
                          "strings, never an owning string");
            kinds[i] = Kind::str;
            values[i].s = v;
        }
    }

    void print(std::ostream &os, unsigned i) const;

    /** Static format literal; null means no payload. */
    const char *fmt = nullptr;
    std::array<Value, maxTraceArgs> values{};
    std::array<Kind, maxTraceArgs> kinds{};
    std::uint8_t count = 0;
};

/** One captured span or instant. */
struct TraceRecord
{
    Tick start = 0;
    Tick dur = 0;
    Flag cat = Flag::event;
    bool instant = false;
    /** Static-duration string (macro call sites pass literals). */
    const char *name = "";
    /** Optional "k=v" payload, formatted only by detail(). */
    TracePayload payload;
    /** Per-sink emission sequence — total order within one system. */
    std::uint64_t seq = 0;

    /** The payload text ("" when the record has none). */
    std::string detail() const { return payload.format(); }
};

/** Capture configuration, carried inside KindleConfig. */
struct TraceParams
{
    /** Keep every record for Chrome-JSON export. */
    bool spans = false;

    /** Flight-recorder depth in records; 0 disables the ring. */
    std::size_t ringDepth = 512;

    /**
     * Comma-separated category names (Flag vocabulary, e.g.
     * "checkpoint,redo,fault"); empty means all categories.
     */
    std::string categories;

    /**
     * When non-empty, the owning system dumps the flight recorder to
     * this file automatically on an injected power loss or a recovery
     * pass that reports errors.
     */
    std::string flightDumpPath;
};

/** Everything a flight-recorder dump says about why it exists. */
struct FlightContext
{
    /** "power-loss", "recovery-error", "oracle-divergence", ... */
    std::string reason;
    /** Crash site that fired (empty when not site-triggered). */
    std::string crashSite;
    /** Simulated tick of the failure. */
    Tick tick = 0;
    /** Preformatted description of the armed fault plan. */
    std::string faultPlan;
};

/**
 * Per-system trace collector.  Single-threaded by construction (one
 * simulated machine is single threaded); concurrent machines own
 * disjoint sinks.
 */
class TraceSink
{
  public:
    TraceSink(TraceParams params, std::function<Tick()> now_fn);

    /** Would a record in @p cat be captured at all right now? */
    bool wants(Flag cat) const { return mask[static_cast<unsigned>(cat)]; }

    Tick now() const { return nowFn(); }

    /** Replace the category mask (empty @p names = all categories). */
    void setCategories(std::string_view names);

    /** Record a completed span [@p start, @p end). */
    void complete(Flag cat, const char *name, Tick start, Tick end,
                  const TracePayload &payload);

    /** Record an instantaneous event at the current tick. */
    void instant(Flag cat, const char *name,
                 const TracePayload &payload = {});

    const TraceParams &params() const { return _params; }

    /** Records captured for export (empty unless spans enabled). */
    const std::vector<TraceRecord> &records() const { return _records; }

    /** Total records ever emitted into this sink. */
    std::uint64_t totalRecorded() const { return totalSeen; }

    /** Records currently held by the flight ring. */
    std::size_t ringSize() const;

    /** Ring record @p i, oldest first (i < ringSize()). */
    const TraceRecord &ringAt(std::size_t i) const;

    /**
     * Export collected spans as Chrome trace-event JSON: metadata
     * names the process and one thread per used category, then
     * complete ("X") and instant ("i") events sorted chronologically
     * (ties broken longest-duration-first so nested spans stay inside
     * their parents).
     */
    void writeChromeJson(std::ostream &os) const;

    /** Dump the flight ring plus @p ctx as one JSON object. */
    void writeFlightRecorder(std::ostream &os,
                             const FlightContext &ctx) const;

  private:
    /** Store one record in each mode that keeps it. */
    void record(Flag cat, const char *name, Tick start, Tick dur,
                bool instant, const TracePayload &payload);

    TraceParams _params;
    std::function<Tick()> nowFn;

    /** Categories captured; all clear when neither mode is on. */
    FlagMask mask{};

    std::vector<TraceRecord> _records;
    std::vector<TraceRecord> ring;
    std::size_t ringNext = 0;
    /** Where record() writes a record that neither mode keeps. */
    TraceRecord unkept;
    std::uint64_t totalSeen = 0;
};

/** The sink that would capture a @p cat record now, or null. */
inline TraceSink *
sinkFor(Flag cat)
{
    TraceSink *s = detail::probes.sink;
    return s && s->wants(cat) ? s : nullptr;
}

/**
 * RAII protocol span: captures the start tick at construction and
 * emits one complete record at destruction.  With no sink registered
 * construction is one thread-local load and a branch (one more when a
 * sink's mask rejects the category), and the destructor does nothing.
 */
class TraceSpan
{
  public:
    TraceSpan(Flag cat, const char *name) : sink(detail::probes.sink)
    {
        if (!sink)
            return;
        if (!sink->wants(cat)) {
            sink = nullptr;
            return;
        }
        // The rest is set up only on the armed path, so a disarmed
        // span costs what a disarmed profiler probe does.
        this->cat = cat;
        this->name = name;
        start = sink->now();
        new (&payload) TracePayload();
    }

    ~TraceSpan()
    {
        if (sink)
            sink->complete(cat, name, start, sink->now(), payload);
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** True when this span will be recorded (guard arg evaluation). */
    bool active() const { return sink != nullptr; }

    /** Attach a "k=v" payload (only while active()); see TracePayload. */
    template <std::size_t N, typename... Args>
    void
    setArgs(const char (&fmt)[N], const Args &...args)
    {
        payload = TracePayload(fmt, args...);
    }

  private:
    TraceSink *sink;
    Flag cat;
    const char *name;
    Tick start;
    union
    {
        TracePayload payload;  ///< set up only while sink is non-null
    };
};

} // namespace kindle::trace

/**
 * Instrumentation macros:
 *
 *   KINDLE_TRACE_SPAN(checkpoint, "ckpt.ptWalk");
 *   KINDLE_TRACE_SPAN_ARGS(checkpoint, "ckpt.process", "pid={}", pid);
 *   KINDLE_TRACE_INSTANT(redo, "redo.append");
 *
 * The first two declare an anonymous RAII span covering the rest of
 * the enclosing block.  The _ARGS forms evaluate their arguments only
 * when the record is actually captured, and store them unformatted
 * (TracePayload): the format must be a literal and each argument a
 * scalar or a static C string.
 */
#define KINDLE_TRACE_CAT2_(a, b) a##b
#define KINDLE_TRACE_CAT_(a, b) KINDLE_TRACE_CAT2_(a, b)

#define KINDLE_TRACE_SPAN(cat, name)                                    \
    ::kindle::trace::TraceSpan KINDLE_TRACE_CAT_(kindleSpan_, __LINE__)( \
        ::kindle::trace::Flag::cat, name)

#define KINDLE_TRACE_SPAN_ARGS(cat, name, ...)                          \
    KINDLE_TRACE_SPAN(cat, name);                                       \
    if (KINDLE_TRACE_CAT_(kindleSpan_, __LINE__).active())              \
        KINDLE_TRACE_CAT_(kindleSpan_, __LINE__).setArgs(__VA_ARGS__)

#define KINDLE_TRACE_INSTANT(cat, name)                                 \
    do {                                                                \
        if (::kindle::trace::TraceSink *kindleSink_ =                   \
                ::kindle::trace::sinkFor(::kindle::trace::Flag::cat))   \
            kindleSink_->instant(::kindle::trace::Flag::cat, name);     \
    } while (0)

#define KINDLE_TRACE_INSTANT_ARGS(cat, name, ...)                       \
    do {                                                                \
        if (::kindle::trace::TraceSink *kindleSink_ =                   \
                ::kindle::trace::sinkFor(::kindle::trace::Flag::cat))   \
            kindleSink_->instant(                                       \
                ::kindle::trace::Flag::cat, name,                       \
                ::kindle::trace::TracePayload(__VA_ARGS__));            \
    } while (0)

#endif // KINDLE_TRACE_TRACE_HH
