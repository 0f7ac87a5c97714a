#include "telemetry/telemetry.hh"

#include "base/json.hh"
#include "base/logging.hh"

namespace kindle::telemetry
{

Sampler::Sampler(sim::Simulation &sim, const TelemetryParams &params,
                 SnapshotFn snapshot_fn)
    : sim(sim),
      timer("telemetry.sample", sim::Event::Priority::telemetry, sim,
            [this] { sampleOnce(); }),
      snapshotFn(std::move(snapshot_fn)),
      interval(params.sampleInterval),
      maxSamples(std::max<std::size_t>(params.maxSamples & ~1ull, 2))
{
}

void
Sampler::addStatChannel(const std::string &name, Kind kind,
                        const std::string &stat_path)
{
    for (const Channel &ch : channels) {
        if (ch.name == name)
            kindle_fatal("telemetry channel {} already registered",
                         name);
    }
    channels.push_back({name, kind, stat_path, nullptr, 0});
}

void
Sampler::addCallbackChannel(const std::string &name, Kind kind,
                            ValueFn fn)
{
    for (const Channel &ch : channels) {
        if (ch.name == name)
            kindle_fatal("telemetry channel {} already registered",
                         name);
    }
    channels.push_back({name, kind, {}, std::move(fn), 0});
}

double
Sampler::rawValue(const Channel &ch,
                  const statistics::StatSnapshot &snap) const
{
    // Absent paths read as 0: lazily-registered stats (reclaim, bad
    // frames) simply have not happened yet.
    return ch.fn ? ch.fn() : snap.getOr(ch.statPath, 0);
}

void
Sampler::start()
{
    if (interval == 0 || channels.empty())
        return;
    timer.stop();
    // Prime the rate baselines without recording a sample: the first
    // recorded delta then covers exactly [start, start + interval],
    // and the series' deltas sum to "total activity since start()".
    const statistics::StatSnapshot snap = snapshotFn();
    for (Channel &ch : channels)
        ch.prevRaw = rawValue(ch, snap);
    timer.start(effectiveInterval());
}

void
Sampler::sampleOnce()
{
    const statistics::StatSnapshot snap = snapshotFn();
    Sample s;
    s.tick = sim.now();
    s.values.reserve(channels.size());
    for (Channel &ch : channels) {
        const double raw = rawValue(ch, snap);
        if (ch.kind == Kind::level) {
            s.values.push_back(raw);
            continue;
        }
        // A raw reading below the baseline means the counter restarted
        // (crash/reboot rebuilt the stat tree); the whole reading is
        // then new activity.  Deltas stay non-negative either way.
        const double delta =
            raw >= ch.prevRaw ? raw - ch.prevRaw : raw;
        ch.prevRaw = raw;
        s.values.push_back(delta);
    }
    series.push_back(std::move(s));
    if (series.size() >= maxSamples)
        decimate();
}

void
Sampler::decimate()
{
    std::vector<Sample> merged;
    merged.reserve(series.size() / 2);
    for (std::size_t i = 0; i + 1 < series.size(); i += 2) {
        Sample &a = series[i];
        Sample &b = series[i + 1];
        Sample m;
        // The merged sample stands for the whole [a-start, b-end]
        // window: rates add across the pair, levels keep the later
        // instant, and the later tick labels it.
        m.tick = b.tick;
        m.values.resize(channels.size());
        for (std::size_t c = 0; c < channels.size(); ++c) {
            m.values[c] = channels[c].kind == Kind::rate
                              ? a.values[c] + b.values[c]
                              : b.values[c];
        }
        merged.push_back(std::move(m));
    }
    series = std::move(merged);
    stride *= 2;
    timer.setPeriod(effectiveInterval());
}

void
Sampler::writeJson(std::ostream &os) const
{
    json::Writer w(os);
    w.beginObject();
    w.keyValue("sampleInterval", static_cast<std::uint64_t>(interval));
    w.keyValue("stride", stride);
    w.keyValue("effectiveInterval",
               static_cast<std::uint64_t>(effectiveInterval()));
    w.key("channels");
    w.beginArray();
    for (const Channel &ch : channels) {
        w.beginObject();
        w.keyValue("name", ch.name);
        w.keyValue("kind",
                   ch.kind == Kind::rate ? "rate" : "level");
        if (!ch.statPath.empty())
            w.keyValue("stat", ch.statPath);
        w.endObject();
    }
    w.endArray();
    w.key("samples");
    w.beginArray();
    for (const Sample &s : series) {
        w.beginObject();
        w.keyValue("tick", static_cast<std::uint64_t>(s.tick));
        w.key("values");
        w.beginArray();
        for (double v : s.values)
            w.value(v);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
Sampler::writeCsv(std::ostream &os) const
{
    os << "tick";
    for (const Channel &ch : channels)
        os << ',' << ch.name;
    os << '\n';
    for (const Sample &s : series) {
        os << s.tick;
        for (double v : s.values)
            os << ',' << v;
        os << '\n';
    }
}

} // namespace kindle::telemetry
