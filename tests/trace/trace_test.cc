/**
 * @file
 * Tests of the tracing substrate: span capture and nesting, category
 * masking, probe routing, the flight-recorder ring, Chrome-JSON export
 * order and metadata, converted instants on a live system, and the
 * checkpoint-decomposition guarantee, deferred payloads (rendered as
 * csprintf renders them) and byte-identical crash-point dumps.  The
 * exported files' full shape
 * (well-formed JSON, event order, flight-dump bookkeeping) is checked
 * by scripts/check_trace_json.py on a traced experiments sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "base/str.hh"
#include "fault/fault.hh"
#include "kindle/kindle.hh"
#include "kindle/microbench.hh"
#include "persist/checkpoint.hh"
#include "trace/profiler.hh"
#include "trace/trace.hh"

namespace kindle::trace
{
namespace
{

TraceParams
paramsFor(bool spans, std::size_t ring, std::string categories = {})
{
    TraceParams p;
    p.spans = spans;
    p.ringDepth = ring;
    p.categories = std::move(categories);
    return p;
}

TEST(TraceTest, SpanCapturesStartDurationAndIdentity)
{
    Tick clock = 1000;
    TraceSink sink(paramsFor(true, 0), [&clock] { return clock; });
    ProbeScope scope({.sink = &sink});
    {
        KINDLE_TRACE_SPAN(checkpoint, "t.span");
        clock += 250;
    }
    ASSERT_EQ(sink.records().size(), 1u);
    const TraceRecord &rec = sink.records()[0];
    EXPECT_EQ(rec.start, 1000u);
    EXPECT_EQ(rec.dur, 250u);
    EXPECT_STREQ(rec.name, "t.span");
    EXPECT_EQ(rec.cat, Flag::checkpoint);
    EXPECT_FALSE(rec.instant);
}

TEST(TraceTest, NestedSpansCompleteInnerFirstButExportOuterFirst)
{
    Tick clock = 0;
    TraceSink sink(paramsFor(true, 0), [&clock] { return clock; });
    ProbeScope scope({.sink = &sink});
    {
        KINDLE_TRACE_SPAN(checkpoint, "outer");
        clock += 10;
        {
            KINDLE_TRACE_SPAN(checkpoint, "inner");
            clock += 30;
        }
        clock += 60;
    }

    // Capture order is completion order: the inner RAII span destructs
    // first.
    ASSERT_EQ(sink.records().size(), 2u);
    EXPECT_STREQ(sink.records()[0].name, "inner");
    EXPECT_STREQ(sink.records()[1].name, "outer");
    EXPECT_LT(sink.records()[1].start, sink.records()[0].start);
    EXPECT_GT(sink.records()[1].dur, sink.records()[0].dur);

    // The Chrome export re-sorts so the parent precedes the child
    // (start ascending, duration descending on ties) — required for
    // Perfetto to nest them on one track.
    std::ostringstream os;
    sink.writeChromeJson(os);
    const std::string out = os.str();
    const std::size_t outer = out.find("\"name\": \"outer\"");
    const std::size_t inner = out.find("\"name\": \"inner\"");
    ASSERT_NE(outer, std::string::npos);
    ASSERT_NE(inner, std::string::npos);
    EXPECT_LT(outer, inner);
}

TEST(TraceTest, CategoryMaskRejectsUnlistedFlags)
{
    Tick clock = 0;
    TraceSink sink(paramsFor(true, 0, "redo,fault"),
                   [&clock] { return clock; });
    ProbeScope scope({.sink = &sink});
    EXPECT_TRUE(sink.wants(Flag::redo));
    EXPECT_TRUE(sink.wants(Flag::fault));
    EXPECT_FALSE(sink.wants(Flag::checkpoint));

    KINDLE_TRACE_INSTANT(checkpoint, "masked.out");
    KINDLE_TRACE_INSTANT(redo, "kept");
    ASSERT_EQ(sink.records().size(), 1u);
    EXPECT_STREQ(sink.records()[0].name, "kept");

    // Re-masking at runtime widens capture again; empty = all.
    sink.setCategories("");
    EXPECT_TRUE(sink.wants(Flag::checkpoint));
}

TEST(TraceTest, MaskedSpanSkipsArgumentFormatting)
{
    Tick clock = 0;
    TraceSink sink(paramsFor(true, 0, "redo"),
                   [&clock] { return clock; });
    ProbeScope scope({.sink = &sink});
    bool evaluated = false;
    auto touch = [&evaluated] {
        evaluated = true;
        return 42;
    };
    {
        KINDLE_TRACE_SPAN_ARGS(checkpoint, "masked",
                               "v={}", touch());
    }
    EXPECT_FALSE(evaluated);
    EXPECT_TRUE(sink.records().empty());
}

TEST(TraceTest, NoSinkAndNullScopeAreInert)
{
    // Bare probe with no registration: must not crash, must be
    // inactive.
    TraceSpan orphan(Flag::checkpoint, "orphan");
    EXPECT_FALSE(orphan.active());

    // A registration without a sink shadows an outer sink: a sink-less
    // system must not leak records into an older system's sink.
    Tick clock = 0;
    TraceSink sink(paramsFor(true, 0), [&clock] { return clock; });
    ProbeScope outer({.sink = &sink});
    {
        ProbeScope inner({});
        EXPECT_EQ(probes().sink, nullptr);
        KINDLE_TRACE_INSTANT(checkpoint, "shadowed");
    }
    EXPECT_EQ(probes().sink, &sink);
    EXPECT_TRUE(sink.records().empty());
}

TEST(ProbeRoutingTest, NewestRegistrationWinsNullShadowsUnwindRestores)
{
    // Outside any registration every kind of probe is inert.
    {
        TraceSpan orphan(Flag::checkpoint, "orphan");
        EXPECT_FALSE(orphan.active());
        KINDLE_PROF_SCOPE(cache);
        KINDLE_CRASH_SITE("core.pre_offline");
    }

    Tick clock = 0;
    const auto now = [&clock] { return clock; };
    // The sinks keep only "redo", so the injector's own fault-category
    // breadcrumbs stay out of the counts below.
    TraceSink outer_sink(paramsFor(true, 0, "redo"), now);
    TraceSink inner_sink(paramsFor(true, 0, "redo"), now);
    Profiler outer_prof;
    Profiler inner_prof;
    fault::CrashInjector outer_inj(fault::FaultPlan{}, now);
    fault::CrashInjector inner_inj(fault::FaultPlan{}, now);
    outer_inj.activate();
    inner_inj.activate();
    const Probes outer{&outer_sink, &outer_prof, &outer_inj};
    const Probes inner{&inner_sink, &inner_prof, &inner_inj};

    // One probe of each kind.
    const auto fire = [] {
        KINDLE_TRACE_INSTANT(redo, "probe");
        KINDLE_PROF_SCOPE(cache);
        KINDLE_CRASH_SITE("ckpt.after_commit");
    };
    const auto counts = [](const Probes &p) {
        return std::vector<double>{
            static_cast<double>(p.sink->records().size()),
            p.profiler->categoryCalls(Flag::cache),
            static_cast<double>(p.injector->hitsOf("ckpt.after_commit"))};
    };

    ProbeScope outer_scope(outer);
    {
        // The newest registration wins...
        ProbeScope inner_scope(inner);
        fire();
        {
            // ...and a system without targets shadows the outer ones
            // instead of leaking probes into them.
            ProbeScope none({});
            EXPECT_EQ(probes(), Probes{});
            fire();
        }
        // Unwinding restores the registration each scope replaced.
        EXPECT_EQ(probes(), inner);
        fire();
    }
    EXPECT_EQ(probes(), outer);
    fire();

    EXPECT_EQ(counts(inner), (std::vector<double>{2, 2, 2}));
    EXPECT_EQ(counts(outer), (std::vector<double>{1, 1, 1}));
}

TEST(TraceTest, RingKeepsLastNRecordsOldestFirst)
{
    Tick clock = 0;
    TraceSink sink(paramsFor(false, 4), [&clock] { return clock; });
    ProbeScope scope({.sink = &sink});
    for (int i = 0; i < 10; ++i) {
        clock = 100 * (i + 1);
        KINDLE_TRACE_INSTANT(fault, "probe");
    }

    // Span collection is off: nothing accumulates unbounded.
    EXPECT_TRUE(sink.records().empty());
    EXPECT_EQ(sink.totalRecorded(), 10u);
    ASSERT_EQ(sink.ringSize(), 4u);
    // Oldest-first across the wraparound seam: ticks 700..1000.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(sink.ringAt(i).start, 700 + 100 * i);
        EXPECT_EQ(sink.ringAt(i).seq, 6 + i);
    }
}

TEST(TraceTest, RingShallowerThanTrafficStillChronological)
{
    Tick clock = 0;
    TraceSink sink(paramsFor(false, 3), [&clock] { return clock; });
    ProbeScope scope({.sink = &sink});
    // Mixed spans and instants, enough to wrap several times.
    for (int i = 0; i < 17; ++i) {
        {
            KINDLE_TRACE_SPAN(checkpoint, "w");
            clock += 5;
        }
        KINDLE_TRACE_INSTANT(redo, "i");
    }
    EXPECT_EQ(sink.totalRecorded(), 34u);
    ASSERT_EQ(sink.ringSize(), 3u);
    for (std::size_t i = 1; i < sink.ringSize(); ++i) {
        EXPECT_GE(sink.ringAt(i).start, sink.ringAt(i - 1).start);
        EXPECT_GT(sink.ringAt(i).seq, sink.ringAt(i - 1).seq);
    }
}

TEST(TraceTest, FlightDumpIsSelfContainedJson)
{
    Tick clock = 0;
    TraceSink sink(paramsFor(false, 4), [&clock] { return clock; });
    ProbeScope scope({.sink = &sink});
    for (int i = 0; i < 10; ++i) {
        clock += 50;
        KINDLE_TRACE_INSTANT(fault, "breadcrumb");
    }

    FlightContext ctx;
    ctx.reason = "oracle-divergence";
    ctx.crashSite = "ckpt.after_commit";
    ctx.tick = clock;
    ctx.faultPlan = "power-loss @ ckpt.after_commit hit=3";
    std::ostringstream os;
    sink.writeFlightRecorder(os, ctx);

    // The dump carries its context and the ring's bookkeeping...
    const std::string out = os.str();
    for (const char *field :
         {"\"reason\": \"oracle-divergence\"",
          "\"crashSite\": \"ckpt.after_commit\"",
          "\"faultPlan\": \"power-loss @ ckpt.after_commit hit=3\"",
          "\"ringDepth\": 4", "\"totalRecorded\": 10",
          "\"dropped\": 6"}) {
        EXPECT_NE(out.find(field), std::string::npos) << field;
    }
    // ...over the ring it was written from: the last 4 of 10
    // breadcrumbs, oldest first.
    EXPECT_EQ(sink.totalRecorded(), 10u);
    ASSERT_EQ(sink.ringSize(), 4u);
    for (std::size_t i = 0; i < sink.ringSize(); ++i) {
        EXPECT_STREQ(sink.ringAt(i).name, "breadcrumb");
        EXPECT_EQ(sink.ringAt(i).cat, Flag::fault);
        EXPECT_EQ(sink.ringAt(i).start, 50 * (7 + i));
    }
}

/** Small checkpointing system used by the export-shape tests. */
KindleConfig
tracedConfig()
{
    KindleConfig cfg;
    cfg.memory.dramBytes = 256 * oneMiB;
    cfg.memory.nvmBytes = 512 * oneMiB;
    cfg.persistence =
        persist::PersistParams{persist::PtScheme::rebuild, oneMs};
    cfg.trace.spans = true;
    return cfg;
}

std::unique_ptr<cpu::OpStream>
touchScript()
{
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, 64 * pageSize, /*nvm=*/true);
    b.touchPages(micro::scriptBase, 64 * pageSize);
    for (int i = 0; i < 20; ++i)
        b.compute(1000000);  // ~0.3 ms each: crosses ckpt intervals
    b.munmap(micro::scriptBase, 64 * pageSize);
    b.exit();
    return b.build();
}

TEST(TraceTest, ChromeExportParsesAndIsChronological)
{
    KindleSystem sys(tracedConfig());
    sys.run(touchScript(), "trace-golden");

    // The run captured complete spans, and records on the
    // checkpoint's lane (category) among others.
    std::size_t complete = 0;
    std::vector<bool> lane(numFlags, false);
    for (const TraceRecord &rec : sys.traceSink().records()) {
        complete += !rec.instant;
        lane[static_cast<unsigned>(rec.cat)] = true;
    }
    EXPECT_GT(complete, 0u);
    EXPECT_TRUE(lane[static_cast<unsigned>(Flag::checkpoint)]);

    // The export names the process and one thread per used lane.
    std::ostringstream os;
    sys.writeTrace(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"displayTimeUnit\": \"ns\""),
              std::string::npos);
    EXPECT_NE(out.find("\"name\": \"process_name\""),
              std::string::npos);
    std::size_t thread_names = 0;
    for (std::size_t at = out.find("\"name\": \"thread_name\"");
         at != std::string::npos;
         at = out.find("\"name\": \"thread_name\"", at + 1)) {
        ++thread_names;
    }
    EXPECT_EQ(thread_names,
              static_cast<std::size_t>(
                  std::count(lane.begin(), lane.end(), true)));
    EXPECT_GE(thread_names, 2u);
}

TEST(TraceTest, CheckpointSpansDecomposeCkptTicks)
{
    KindleSystem sys(tracedConfig());
    sys.run(touchScript(), "trace-decompose");
    ASSERT_NE(sys.persistence(), nullptr);
    ASSERT_GT(sys.persistence()->checkpointsTaken(), 0u);

    // Sum of the top-level "ckpt" span durations must account for the
    // ticks the stat system attributes to checkpointing: the trace
    // explains the stats, bit for bit.
    double span_ticks = 0;
    for (const TraceRecord &rec : sys.traceSink().records()) {
        if (!rec.instant && std::strcmp(rec.name, "ckpt") == 0)
            span_ticks += static_cast<double>(rec.dur);
    }
    const double stat_ticks =
        sys.persistence()->stats().distribution("ckptTicks").sum();
    ASSERT_GT(stat_ticks, 0);
    EXPECT_GE(span_ticks, 0.95 * stat_ticks);
    EXPECT_DOUBLE_EQ(span_ticks, stat_ticks);
}

TEST(TraceTest, SystemFlightDumpNamesTheCrashSite)
{
    // Ring-only system (default): force a dump through the system
    // API and check it carries the context a post-mortem needs.
    KindleConfig cfg = tracedConfig();
    cfg.trace.spans = false;
    KindleSystem sys(cfg);
    sys.run(touchScript(), "flight");

    std::ostringstream os;
    sys.dumpFlightRecorder(os, "unit-test");
    const std::string out = os.str();
    EXPECT_NE(out.find("\"reason\": \"unit-test\""),
              std::string::npos);
    EXPECT_NE(out.find("\"ringDepth\": 512"), std::string::npos);
    EXPECT_GT(sys.traceSink().ringSize(), 0u);
    EXPECT_NE(out.find("\"seq\": "), std::string::npos);
}

TEST(TraceTest, ConvertedInstantLandsInTheRingUnderItsCategory)
{
    // An NVM zone capped below the mapping: the MAP_NVM faults past
    // the cap degrade to DRAM, and each degrade is a syscall instant.
    const auto run = [](const std::string &categories) {
        KindleConfig cfg;
        cfg.memory.dramBytes = 128 * oneMiB;
        cfg.memory.nvmBytes = 128 * oneMiB;
        cfg.kernel.pressure.nvmZoneFrames = 8;
        cfg.trace.categories = categories;
        auto sys = std::make_unique<KindleSystem>(cfg);
        micro::ScriptBuilder b;
        b.mmapFixed(micro::scriptBase, 32 * pageSize, /*nvm=*/true);
        b.touchPages(micro::scriptBase, 32 * pageSize);
        b.exit();
        sys->run(b.build(), "degrade");
        return sys;
    };
    const auto degrades = [](const TraceSink &sink) {
        std::size_t n = 0;
        for (std::size_t i = 0; i < sink.ringSize(); ++i) {
            const TraceRecord &rec = sink.ringAt(i);
            if (std::strcmp(rec.name, "fault.nvmDegraded") == 0) {
                EXPECT_EQ(rec.cat, Flag::syscall);
                EXPECT_TRUE(rec.instant);
                EXPECT_NE(rec.detail().find("pid="), std::string::npos);
                ++n;
            }
        }
        return n;
    };

    const auto traced = run("");
    const double degraded =
        traced->kernel().stats().scalarValue("nvmDegradedAllocs");
    ASSERT_GT(degraded, 0);
    EXPECT_EQ(degrades(traced->traceSink()), degraded);

    // Masked out, the same run records none, and a probe routed to the
    // live system's sink never formats its payload.
    const auto masked = run("checkpoint");
    EXPECT_EQ(masked->kernel().stats().scalarValue("nvmDegradedAllocs"),
              degraded);
    EXPECT_EQ(degrades(masked->traceSink()), 0u);
    bool evaluated = false;
    auto touch = [&evaluated] {
        evaluated = true;
        return 42;
    };
    KINDLE_TRACE_INSTANT_ARGS(syscall, "masked", "v={}", touch());
    EXPECT_FALSE(evaluated);
    KINDLE_TRACE_INSTANT_ARGS(checkpoint, "kept", "v={}", touch());
    EXPECT_TRUE(evaluated);
}

// ---- Deferred payloads -------------------------------------------

/**
 * A probe's payload, stored in a ring record and rendered by detail(),
 * reads exactly as csprintf on the same format and arguments.
 */
template <std::size_t N, typename... Args>
void
expectLikeCsprintf(const char (&fmt)[N], const Args &...args)
{
    Tick clock = 0;
    TraceSink sink(paramsFor(false, 2), [&clock] { return clock; });
    sink.instant(Flag::fault, "payload", TracePayload(fmt, args...));
    ASSERT_EQ(sink.ringSize(), 1u);
    EXPECT_EQ(sink.ringAt(0).detail(), csprintf(fmt, args...)) << fmt;
}

TEST(TracePayloadTest, EveryArgumentKindRendersLikeCsprintf)
{
    // Unsigned, whatever their width.
    expectLikeCsprintf("u16={} u32={} u64={} size={}", std::uint16_t{7},
                       42u, std::numeric_limits<std::uint64_t>::max(),
                       std::size_t{0});
    // Signed.
    expectLikeCsprintf("int={} i64={} short={} long={}", -1,
                       std::numeric_limits<std::int64_t>::min(),
                       static_cast<short>(-3), 5L);
    // Bool streams as 1/0, as csprintf leaves it.
    expectLikeCsprintf("t={} f={}", true, false);
    // Doubles at the stream's default precision, floats widened.
    expectLikeCsprintf("{} {} {} {}", 0.1, 1.0 / 3, 1e300, -0.0);
    expectLikeCsprintf("{} {} {} {}", 3.0, 12345678.9, 1.5f,
                       std::numeric_limits<double>::infinity());
    // Static C strings, const or not.
    static char mutable_name[] = "scrub";
    expectLikeCsprintf("frame={} reason={}", Addr{0x1000}, "patrol");
    expectLikeCsprintf("reason={}", static_cast<char *>(mutable_name));

    // hscc.migrate's payload: a size and a stat's double value.
    statistics::StatGroup group("hscc", "payload test");
    statistics::Scalar &migrated =
        group.addScalar("pagesMigrated", "pages migrated");
    for (int i = 0; i < 37; ++i)
        ++migrated;
    expectLikeCsprintf("candidates={} migrated={}", std::size_t{41},
                       migrated.value());
    migrated += 0.25;
    expectLikeCsprintf("candidates={} migrated={}", std::size_t{41},
                       migrated.value());
}

TEST(TracePayloadTest, SurplusArgumentsAndPlaceholdersRenderLikeCsprintf)
{
    // Surplus arguments are appended after a space each.
    expectLikeCsprintf("a={}", 1, 2u, "three", true);
    expectLikeCsprintf("no placeholder", 1.5, -2);
    expectLikeCsprintf("", 7);
    // Surplus placeholders stay verbatim.
    expectLikeCsprintf("{} and {} and {}", 1);
    expectLikeCsprintf("{}{}");
    expectLikeCsprintf("plain text");
    // Only "{}" is a placeholder.
    expectLikeCsprintf("{{}} {x} {", 5);
}

TEST(TracePayloadTest, RecordWithoutPayloadHasNoDetail)
{
    Tick clock = 0;
    TraceSink sink(paramsFor(true, 4), [&clock] { return clock; });
    ProbeScope scope({.sink = &sink});
    KINDLE_TRACE_INSTANT(fault, "bare");
    {
        KINDLE_TRACE_SPAN_ARGS(checkpoint, "span", "pid={}", 9);
    }
    ASSERT_EQ(sink.ringSize(), 2u);
    EXPECT_EQ(sink.ringAt(0).detail(), "");
    EXPECT_EQ(sink.ringAt(1).detail(), "pid=9");

    std::ostringstream flight;
    sink.writeFlightRecorder(flight, FlightContext{});
    std::ostringstream chrome;
    sink.writeChromeJson(chrome);
    for (const std::string &out : {flight.str(), chrome.str()}) {
        const std::size_t first = out.find("\"detail\"");
        ASSERT_NE(first, std::string::npos);
        EXPECT_EQ(out.find("\"detail\"", first + 1), std::string::npos);
        EXPECT_NE(out.find("\"detail\": \"pid=9\""), std::string::npos);
    }
}

/** FNV-1a over a dump's bytes. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** One crash point, and what the run's dumps held before payloads
 *  were deferred (captured from that build). */
struct DumpCase
{
    /** First, so the leading byte of the parameter that gtest prints
     *  into the test's listed name is the scheme, not a byte of a
     *  string literal's address that moves with the binary's layout. */
    persist::PtScheme scheme;
    const char *label;
    /** Crash at this site's third hit, or (null) at durable write 500. */
    const char *site;
    std::uint64_t flightHash;
    std::uint64_t chromeHash;
    /** The ring's last (up to 12) records that carry a payload, as
     *  {name, detail}. */
    std::vector<std::pair<std::string, std::string>> tail;
};

class CrashDumpTest : public ::testing::TestWithParam<DumpCase>
{};

TEST_P(CrashDumpTest, DumpsMatchTheCapturedBytes)
{
    const DumpCase &c = GetParam();
    KindleConfig cfg;
    cfg.memory.dramBytes = 64 * oneMiB;
    cfg.memory.nvmBytes = 128 * oneMiB;
    cfg.persistence = persist::PersistParams{c.scheme, oneMs / 4};
    cfg.trace.spans = true;
    cfg.fault = fault::FaultPlan{};
    if (c.site) {
        cfg.fault->site = c.site;
        cfg.fault->occurrence = 3;
    } else {
        cfg.fault->atNthDurableWrite = 500;
    }
    KindleSystem sys(cfg);
    EXPECT_THROW(sys.run(micro::churnBench(2 * oneMiB, oneMiB, 2, 1, true),
                         "flight"),
                 fault::PowerLoss);

    std::vector<std::pair<std::string, std::string>> tail;
    const TraceSink &sink = sys.traceSink();
    for (std::size_t i = sink.ringSize(); i-- > 0 && tail.size() < 12;) {
        const TraceRecord &rec = sink.ringAt(i);
        if (const std::string detail = rec.detail(); !detail.empty())
            tail.insert(tail.begin(), {rec.name, detail});
    }
    EXPECT_EQ(tail, c.tail);

    std::ostringstream flight;
    sys.dumpFlightRecorder(flight, "power-loss");
    std::ostringstream chrome;
    sys.writeTrace(chrome);
    EXPECT_EQ(fnv1a(flight.str()), c.flightHash);
    EXPECT_EQ(fnv1a(chrome.str()), c.chromeHash);
}

// A change that moves simulated output moves these too: re-capture
// them from the run above and say why they moved.
INSTANTIATE_TEST_SUITE_P(
    BothSchemes, CrashDumpTest,
    ::testing::Values(
        DumpCase{persist::PtScheme::rebuild, "rebuild_site",
                 "ckpt.after_commit", 0x121a0d60450a95cbULL,
                 0x4dcfba191fa80706ULL,
                 {{"redo.append", "type=1 seq=0"},
                  {"os.mmap", "pid=1 [17179869184, 17181966336) nvm=1"},
                  {"redo.append", "type=3 seq=1"},
                  {"redo.append", "type=5 seq=2"},
                  {"ckpt.process", "pid=1"},
                  {"redo.append", "type=5 seq=0"},
                  {"ckpt.process", "pid=1"},
                  {"redo.append", "type=5 seq=0"},
                  {"crash.fire", "site=ckpt.after_commit"},
                  {"ckpt.process", "pid=1"}}},
        DumpCase{persist::PtScheme::persistent, "persistent_site",
                 "ckpt.after_commit", 0x51f3c12647350fbdULL,
                 0x83f2e22254e3c414ULL,
                 {{"pt.wrappedStore", "entry=185885520"},
                  {"pt.wrappedStore", "entry=185885528"},
                  {"pt.wrappedStore", "entry=185885536"},
                  {"pt.wrappedStore", "entry=185885544"},
                  {"pt.wrappedStore", "entry=185885552"},
                  {"pt.wrappedStore", "entry=185885560"},
                  {"pt.wrappedStore", "entry=185885568"},
                  {"pt.wrappedStore", "entry=185885576"},
                  {"pt.wrappedStore", "entry=185885584"},
                  {"redo.append", "type=5 seq=0"},
                  {"crash.fire", "site=ckpt.after_commit"},
                  {"ckpt.process", "pid=1"}}},
        DumpCase{persist::PtScheme::rebuild, "rebuild_durable_write",
                 nullptr, 0xcfe111fdbe9d347dULL, 0x980e03ba502cd0e9ULL,
                 {{"redo.append", "type=1 seq=0"},
                  {"os.mmap", "pid=1 [17179869184, 17181966336) nvm=1"},
                  {"redo.append", "type=3 seq=1"},
                  {"redo.append", "type=5 seq=2"},
                  {"ckpt.process", "pid=1"},
                  {"redo.append", "type=5 seq=0"},
                  {"ckpt.process", "pid=1"},
                  {"redo.append", "type=5 seq=0"},
                  {"crash.fire", "site=nvm.durable_write#500"},
                  {"ckpt.process", "pid=1"}}},
        DumpCase{persist::PtScheme::persistent, "persistent_durable_write",
                 nullptr, 0x0fe30960a4ecd39dULL, 0xa0c00eb9219ea313ULL,
                 {{"pt.wrappedStore", "entry=185885520"},
                  {"pt.wrappedStore", "entry=185885528"},
                  {"pt.wrappedStore", "entry=185885536"},
                  {"pt.wrappedStore", "entry=185885544"},
                  {"pt.wrappedStore", "entry=185885552"},
                  {"pt.wrappedStore", "entry=185885560"},
                  {"pt.wrappedStore", "entry=185885568"},
                  {"pt.wrappedStore", "entry=185885576"},
                  {"pt.wrappedStore", "entry=185885584"},
                  {"redo.append", "type=5 seq=0"},
                  {"crash.fire", "site=nvm.durable_write#500"},
                  {"ckpt.process", "pid=1"}}}),
    [](const ::testing::TestParamInfo<DumpCase> &info) {
        return std::string(info.param.label);
    });

} // namespace
} // namespace kindle::trace
