#include "trace/trace.hh"

#include <algorithm>
#include <sstream>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/str.hh"

namespace kindle::trace
{

FlagMask
parseCategories(std::string_view names, const char *origin)
{
    FlagMask mask{};
    bool any = false;
    for (const auto &name : split(names, ',')) {
        const std::string wanted = trim(name);
        if (wanted.empty())
            continue;
        unsigned i = 0;
        while (i < numFlags && wanted != flagNames[i])
            ++i;
        if (i == numFlags) {
            std::string known;
            for (const char *n : flagNames)
                known += csprintf(" {}", n);
            kindle_fatal("{}: unknown trace category '{}' (known:{})",
                         origin, wanted, known);
        }
        mask[i] = any = true;
    }
    if (!any)
        mask.fill(true);
    return mask;
}

TraceSink::TraceSink(TraceParams params, std::function<Tick()> now_fn)
    : _params(std::move(params)), nowFn(std::move(now_fn))
{
    kindle_assert(nowFn != nullptr, "TraceSink needs a clock");
    if (_params.ringDepth > 0)
        ring.resize(_params.ringDepth);
    setCategories(_params.categories);
}

void
TraceSink::setCategories(std::string_view names)
{
    mask = parseCategories(names, "trace categories");
    // With nothing kept, reject every probe at its first check.
    if (!_params.spans && _params.ringDepth == 0)
        mask.fill(false);
}

std::string
TracePayload::format() const
{
    if (!fmt)
        return {};
    // csprintf's rules (base/str.hh): each argument fills the next
    // "{}"; a surplus one is appended after a space, and a surplus
    // placeholder stays verbatim.
    std::ostringstream os;
    std::string_view rest = fmt;
    for (unsigned i = 0; i < count; ++i) {
        const auto pos = rest.find("{}");
        if (pos == std::string_view::npos) {
            os << rest << ' ';
            rest = {};
        } else {
            os << rest.substr(0, pos);
            rest = rest.substr(pos + 2);
        }
        print(os, i);
    }
    os << rest;
    return os.str();
}

void
TracePayload::print(std::ostream &os, unsigned i) const
{
    const Value &v = values[i];
    switch (kinds[i]) {
      case Kind::u64: os << v.u; break;
      case Kind::i64: os << v.i; break;
      case Kind::boolean: os << v.b; break;
      case Kind::f64: os << v.d; break;
      case Kind::str: os << v.s; break;
    }
}

void
TraceSink::record(Flag cat, const char *name, Tick start, Tick dur,
                  bool instant, const TracePayload &payload)
{
    // Filled in place: the ring slot, else the span vector's next one.
    // Building a record and copying it in doubles a ring-only probe's
    // cost (micro_trace's RingOnly cases).
    TraceRecord *rec = &unkept;
    if (_params.ringDepth > 0) {
        rec = &ring[ringNext];
        ringNext = (ringNext + 1) % _params.ringDepth;
    } else if (_params.spans) {
        rec = &_records.emplace_back();
    }
    rec->start = start;
    rec->dur = dur;
    rec->cat = cat;
    rec->instant = instant;
    rec->name = name;
    rec->payload = payload;
    rec->seq = totalSeen++;
    if (_params.spans && _params.ringDepth > 0)
        _records.push_back(*rec);
}

void
TraceSink::complete(Flag cat, const char *name, Tick start, Tick end,
                    const TracePayload &payload)
{
    record(cat, name, start, end >= start ? end - start : 0, false,
           payload);
}

void
TraceSink::instant(Flag cat, const char *name,
                   const TracePayload &payload)
{
    record(cat, name, nowFn(), 0, true, payload);
}

std::size_t
TraceSink::ringSize() const
{
    if (_params.ringDepth == 0)
        return 0;
    return totalSeen < _params.ringDepth
               ? static_cast<std::size_t>(totalSeen)
               : _params.ringDepth;
}

const TraceRecord &
TraceSink::ringAt(std::size_t i) const
{
    kindle_assert(i < ringSize(), "flight-recorder index out of range");
    if (totalSeen < _params.ringDepth)
        return ring[i];
    return ring[(ringNext + i) % _params.ringDepth];
}

namespace
{

/** Simulated picoseconds → Chrome's microsecond timestamp unit. */
double
ticksToChromeUs(Tick t)
{
    return static_cast<double>(t) / 1e6;
}

void
writeEventArgs(json::Writer &w, const TraceRecord &rec)
{
    w.key("args");
    w.beginObject();
    w.keyValue("cat", flagName(rec.cat));
    if (const std::string detail = rec.detail(); !detail.empty())
        w.keyValue("detail", detail);
    w.endObject();
}

} // namespace

void
TraceSink::writeChromeJson(std::ostream &os) const
{
    // Chronological export: Perfetto requires a parent complete event
    // to precede the children it encloses, which (start asc, dur
    // desc) guarantees; seq breaks the remaining ties so output is
    // deterministic.
    std::vector<const TraceRecord *> sorted;
    sorted.reserve(_records.size());
    for (const auto &rec : _records)
        sorted.push_back(&rec);
    std::sort(sorted.begin(), sorted.end(),
              [](const TraceRecord *a, const TraceRecord *b) {
                  if (a->start != b->start)
                      return a->start < b->start;
                  if (a->dur != b->dur)
                      return a->dur > b->dur;
                  return a->seq < b->seq;
              });

    FlagMask laneUsed{};
    for (const auto *rec : sorted)
        laneUsed[static_cast<unsigned>(rec->cat)] = true;

    json::Writer w(os);
    w.beginObject();
    w.keyValue("displayTimeUnit", "ns");
    w.key("traceEvents");
    w.beginArray();

    // Metadata: name the process and one lane per used category,
    // sorted in enum order.
    w.beginObject();
    w.keyValue("name", "process_name");
    w.keyValue("ph", "M");
    w.keyValue("pid", 1);
    w.keyValue("tid", 0);
    w.key("args");
    w.beginObject();
    w.keyValue("name", "kindle");
    w.endObject();
    w.endObject();
    for (unsigned lane = 0; lane < numFlags; ++lane) {
        if (!laneUsed[lane])
            continue;
        w.beginObject();
        w.keyValue("name", "thread_name");
        w.keyValue("ph", "M");
        w.keyValue("pid", 1);
        w.keyValue("tid", lane);
        w.key("args");
        w.beginObject();
        w.keyValue("name", flagNames[lane]);
        w.endObject();
        w.endObject();
        w.beginObject();
        w.keyValue("name", "thread_sort_index");
        w.keyValue("ph", "M");
        w.keyValue("pid", 1);
        w.keyValue("tid", lane);
        w.key("args");
        w.beginObject();
        w.keyValue("sort_index", lane);
        w.endObject();
        w.endObject();
    }

    for (const auto *rec : sorted) {
        w.beginObject();
        w.keyValue("name", rec->name);
        w.keyValue("cat", flagName(rec->cat));
        w.keyValue("ph", rec->instant ? "i" : "X");
        w.keyValue("ts", ticksToChromeUs(rec->start));
        if (!rec->instant)
            w.keyValue("dur", ticksToChromeUs(rec->dur));
        else
            w.keyValue("s", "t");
        w.keyValue("pid", 1);
        w.keyValue("tid", static_cast<unsigned>(rec->cat));
        writeEventArgs(w, *rec);
        w.endObject();
    }

    w.endArray();
    w.endObject();
    os << '\n';
    kindle_assert(w.balanced(), "trace export left unbalanced JSON");
}

void
TraceSink::writeFlightRecorder(std::ostream &os,
                               const FlightContext &ctx) const
{
    json::Writer w(os);
    w.beginObject();
    w.keyValue("reason", ctx.reason);
    w.keyValue("crashSite", ctx.crashSite);
    w.keyValue("tick", static_cast<std::uint64_t>(ctx.tick));
    w.keyValue("faultPlan", ctx.faultPlan);
    w.keyValue("ringDepth",
               static_cast<std::uint64_t>(_params.ringDepth));
    w.keyValue("totalRecorded", totalSeen);
    const std::size_t n = ringSize();
    w.keyValue("dropped", totalSeen - n);
    w.key("records");
    w.beginArray();
    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord &rec = ringAt(i);
        w.beginObject();
        w.keyValue("seq", rec.seq);
        w.keyValue("tick", static_cast<std::uint64_t>(rec.start));
        if (!rec.instant)
            w.keyValue("dur", static_cast<std::uint64_t>(rec.dur));
        w.keyValue("cat", flagName(rec.cat));
        w.keyValue("name", rec.name);
        if (const std::string detail = rec.detail(); !detail.empty())
            w.keyValue("detail", detail);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
    kindle_assert(w.balanced(),
                  "flight-recorder dump left unbalanced JSON");
}

} // namespace kindle::trace
