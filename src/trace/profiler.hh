/**
 * @file
 * Host-side self-profiler: scoped RAII wall-clock timers over the
 * event dispatch loop and the major subsystem entry points, feeding a
 * `prof.*` stat group of per-category self-time and call counts.
 *
 * Each KINDLE_PROF_SCOPE(cat) probe times the rest of its enclosing
 * block and charges the category with its **exclusive (self) time**:
 * the elapsed wall time minus whatever nested probes already claimed.
 * Self times therefore partition the run, and their sum approximates
 * total measured wall time — the property the --prof table relies
 * on.  Categories are trace::Flag values; the ones that carry a probe
 * are listed in profiledFlags.
 *
 * Everything here is header-only and `inline`, so instrumented
 * headers (sim/simulation.hh's event loop) need no link dependency.
 * Probes find their Profiler through the thread's trace::Probes
 * registration; with none registered a probe is one thread-local load
 * and a branch.
 *
 * prof.* stats are wall-clock derived and thus nondeterministic, so a
 * Profiler must only be attached when profiling was explicitly
 * requested — BENCH_*.json's "everything except wall_ms is
 * deterministic" contract depends on the default snapshot never
 * containing them.
 */

#ifndef KINDLE_TRACE_PROFILER_HH
#define KINDLE_TRACE_PROFILER_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "base/stats.hh"
#include "trace/trace.hh"

namespace kindle::trace
{

/** The categories that carry a KINDLE_PROF_SCOPE probe, in stat order. */
inline constexpr std::array profiledFlags = {
    Flag::event,    Flag::sched, Flag::exec,    Flag::cache,
    Flag::pwalk,    Flag::mem,   Flag::checkpoint, Flag::redo,
    Flag::recovery, Flag::scrub, Flag::reclaim, Flag::ssp,
    Flag::hscc,
};

/** Does @p f own prof.* stats? */
constexpr bool
isProfiled(Flag f)
{
    return std::find(profiledFlags.begin(), profiledFlags.end(), f) !=
           profiledFlags.end();
}

/** Monotonic host clock, in nanoseconds. */
inline std::uint64_t
hostNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

class ProfScope;

/**
 * Per-system accumulator of self-time and call counts, owning the
 * "prof" stat group.  Construct one only when profiling is requested;
 * its existence is what turns the probes on for the registering
 * thread.
 */
class Profiler
{
  public:
    Profiler()
        : group("prof",
                "host-side self-profiler (exclusive wall ns and "
                "calls per category; nondeterministic)")
    {
        for (Flag f : profiledFlags) {
            const std::string base = flagName(f);
            const unsigned i = static_cast<unsigned>(f);
            selfNs[i] = &group.addScalar(
                base + "Ns",
                "exclusive host wall ns spent in " + base);
            calls[i] = &group.addScalar(
                base + "Calls", "probe entries into " + base);
        }
    }

    statistics::StatGroup &stats() { return group; }

    double
    categoryNs(Flag cat) const
    {
        return selfNs[static_cast<unsigned>(cat)]->value();
    }

    double
    categoryCalls(Flag cat) const
    {
        return calls[static_cast<unsigned>(cat)]->value();
    }

    /** Sum of every category's exclusive time, in ns. */
    double
    totalNs() const
    {
        double total = 0;
        for (Flag f : profiledFlags)
            total += categoryNs(f);
        return total;
    }

    /**
     * Print the sorted category table (self-ms descending):
     *
     *   prof: category      calls      self-ms   share
     *   prof: cache       1234567        45.21   40.3%
     */
    void
    printTable(std::ostream &os) const
    {
        struct Row
        {
            const char *name;
            double calls;
            double ns;
        };
        std::array<Row, profiledFlags.size()> rows;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Flag f = profiledFlags[i];
            rows[i] = {flagName(f), categoryCalls(f), categoryNs(f)};
        }
        std::sort(rows.begin(), rows.end(),
                  [](const Row &a, const Row &b) { return a.ns > b.ns; });
        const double total = totalNs();
        char line[128];
        std::snprintf(line, sizeof(line), "prof: %-10s %12s %12s %7s\n",
                      "category", "calls", "self-ms", "share");
        os << line;
        for (const Row &r : rows) {
            if (r.calls == 0 && r.ns == 0)
                continue;
            std::snprintf(line, sizeof(line),
                          "prof: %-10s %12.0f %12.3f %6.1f%%\n", r.name,
                          r.calls, r.ns / 1e6,
                          total ? 100.0 * r.ns / total : 0.0);
            os << line;
        }
        std::snprintf(line, sizeof(line),
                      "prof: %-10s %12s %12.3f\n", "total", "",
                      total / 1e6);
        os << line;
    }

  private:
    friend class ProfScope;

    void
    record(Flag cat, std::uint64_t self_ns)
    {
        *selfNs[static_cast<unsigned>(cat)] +=
            static_cast<double>(self_ns);
        ++*calls[static_cast<unsigned>(cat)];
    }

    statistics::StatGroup group;
    // Indexed by Flag; null for categories without a probe.
    std::array<statistics::Scalar *, numFlags> selfNs{};
    std::array<statistics::Scalar *, numFlags> calls{};

    /** Innermost live ProfScope on the registered thread. */
    ProfScope *top = nullptr;
};

/**
 * RAII probe: times the rest of the enclosing block and charges
 * @p cat with the *exclusive* portion — elapsed minus the time nested
 * probes already claimed.  Nesting is tracked through the profiler's
 * scope stack, so categories partition wall time instead of double
 * counting it.
 */
class ProfScope
{
  public:
    explicit ProfScope(Flag cat)
        : prof(detail::probes.profiler), cat(cat)
    {
        if (!prof)
            return;
        // The remaining members are set up only on the armed path, so
        // a disarmed probe is one thread-local load and this branch.
        parent = prof->top;
        prof->top = this;
        childNs = 0;
        start = hostNowNs();
    }

    ~ProfScope()
    {
        if (!prof)
            return;
        const std::uint64_t elapsed = hostNowNs() - start;
        // Clock granularity can make children report more time than
        // the parent observed; clamp so self time never goes negative.
        prof->record(cat, elapsed - std::min(childNs, elapsed));
        prof->top = parent;
        if (parent)
            parent->childNs += elapsed;
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    Profiler *prof;
    ProfScope *parent;
    Flag cat;
    std::uint64_t start;
    std::uint64_t childNs;
};

} // namespace kindle::trace

/**
 * Self-profiler probe macro: times the rest of the enclosing block
 * under the given category, which must be one of profiledFlags.
 *
 *   KINDLE_PROF_SCOPE(cache);
 */
#define KINDLE_PROF_CAT2_(a, b) a##b
#define KINDLE_PROF_CAT_(a, b) KINDLE_PROF_CAT2_(a, b)

#define KINDLE_PROF_SCOPE(cat)                                          \
    static_assert(::kindle::trace::isProfiled(                          \
                      ::kindle::trace::Flag::cat),                      \
                  "no prof.* stats for this category");                 \
    ::kindle::trace::ProfScope KINDLE_PROF_CAT_(kindleProf_, __LINE__)( \
        ::kindle::trace::Flag::cat)

#endif // KINDLE_TRACE_PROFILER_HH
