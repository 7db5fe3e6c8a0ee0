/**
 * @file
 * Observability layer tests: histogram bucket/percentile exactness,
 * counter snapshot/delta exactness under 1 vs N recording threads,
 * trace JSON well-formedness (golden-file pinned), ring-buffer wrap
 * accounting, build-info stamping, the LEGO_TRACE=0 kill switch (via
 * tests/obs_notrace.cc), and the hard contract of the whole layer:
 * ServeLoop replays are bit-identical with tracing on, off, and
 * compiled out, for any worker count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <thread>

#include "lego.hh"
#include "obs/build_info.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

using namespace lego;

namespace lego
{
namespace obs
{
namespace testing
{
// From tests/obs_notrace.cc — a TU compiled with LEGO_TRACE=0.
void notraceEmitEvents();
bool notraceCompiledOut();
} // namespace testing
} // namespace obs
} // namespace lego

namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::size_t
countLines(const std::string &text)
{
    std::size_t n = 0;
    for (char c : text)
        if (c == '\n')
            ++n;
    return n;
}

/** Default per-thread ring capacity (obs/trace.cc) to restore after
 *  wrap tests shrink it. */
constexpr std::size_t kDefaultRing = std::size_t(1) << 16;

} // namespace

// ---- histograms ------------------------------------------------------

TEST(ObsHistogram, BucketCountsAreExact)
{
    obs::Histogram h({1.0, 2.0, 5.0});
    for (double v : {0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 7.0})
        h.record(v);
    const obs::Histogram::Snapshot s = h.snapshot();
    ASSERT_EQ(s.counts.size(), 4u); // 3 bounds + overflow.
    EXPECT_EQ(s.counts[0], 2u);     // (-inf, 1]: 0.5, 1.0
    EXPECT_EQ(s.counts[1], 2u);     // (1, 2]:    1.5, 2.0
    EXPECT_EQ(s.counts[2], 2u);     // (2, 5]:    3.0, 5.0
    EXPECT_EQ(s.counts[3], 1u);     // (5, inf):  7.0
    EXPECT_EQ(s.count, 7u);
    EXPECT_DOUBLE_EQ(s.sum, 20.0);
    EXPECT_DOUBLE_EQ(s.min, 0.5);
    EXPECT_DOUBLE_EQ(s.max, 7.0);
    EXPECT_DOUBLE_EQ(s.mean(), 20.0 / 7.0);
}

TEST(ObsHistogram, PercentilesAreExactByDefinition)
{
    obs::Histogram h({1.0, 2.0, 5.0});
    for (double v : {0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 7.0})
        h.record(v);
    const obs::Histogram::Snapshot s = h.snapshot();
    // rank = ceil(q * 7): buckets cover ranks 1-2 / 3-4 / 5-6 / 7.
    EXPECT_DOUBLE_EQ(s.percentile(0.50), 2.0);  // rank 4.
    EXPECT_DOUBLE_EQ(s.percentile(0.75), 5.0);  // rank 6.
    EXPECT_DOUBLE_EQ(s.percentile(0.95), 7.0);  // rank 7 = overflow -> max.
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 7.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);   // rank clamps to 1.
}

TEST(ObsHistogram, EmptySnapshotIsAllZero)
{
    obs::Histogram h({1.0, 10.0});
    const obs::Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min, 0.0);
    EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(ObsHistogram, DeltaSubtractsBucketwise)
{
    obs::Histogram h({1.0, 2.0});
    h.record(0.5);
    h.record(1.5);
    const obs::Histogram::Snapshot older = h.snapshot();
    h.record(1.5);
    h.record(9.0);
    const obs::Histogram::Snapshot d = h.snapshot().delta(older);
    EXPECT_EQ(d.count, 2u);
    EXPECT_EQ(d.counts[0], 0u);
    EXPECT_EQ(d.counts[1], 1u); // The second 1.5.
    EXPECT_EQ(d.counts[2], 1u); // The 9.0 overflow.
    EXPECT_DOUBLE_EQ(d.sum, 10.5);
}

TEST(ObsHistogram, DefaultLatencyBucketsAreAscending)
{
    const std::vector<double> b = obs::defaultLatencyBucketsUs();
    ASSERT_GE(b.size(), 2u);
    for (std::size_t i = 1; i < b.size(); ++i)
        EXPECT_LT(b[i - 1], b[i]) << "at " << i;
}

TEST(ObsPercentileOf, NearestRankIsExact)
{
    const std::vector<double> s = {40, 10, 30, 20}; // Unsorted input.
    EXPECT_DOUBLE_EQ(obs::percentileOf(s, 0.25), 10.0);
    EXPECT_DOUBLE_EQ(obs::percentileOf(s, 0.50), 20.0);
    EXPECT_DOUBLE_EQ(obs::percentileOf(s, 0.76), 40.0);
    EXPECT_DOUBLE_EQ(obs::percentileOf(s, 1.00), 40.0);
    EXPECT_DOUBLE_EQ(obs::percentileOf({}, 0.5), 0.0);
}

// ---- counters / registry --------------------------------------------

TEST(ObsMetrics, CounterDeltaExactUnderOneVsManyThreads)
{
    // The same logical workload recorded single- and multi-threaded
    // must produce the SAME snapshot — counters are exact, not
    // sampled.
    obs::MetricsRegistry serial;
    for (int i = 0; i < 4 * 1000; ++i)
        serial.counter("work").add(1);

    obs::MetricsRegistry parallel;
    obs::Counter &c = parallel.counter("work");
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&c] {
            for (int i = 0; i < 1000; ++i)
                c.add(1);
        });
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(serial.snapshot().counters,
              parallel.snapshot().counters);
    EXPECT_EQ(c.value(), 4000u);
}

TEST(ObsMetrics, SnapshotDeltaWindowsAreExact)
{
    obs::MetricsRegistry reg;
    reg.counter("hits").add(10);
    reg.gauge("depth").set(3.0);
    reg.histogram("lat", {1.0, 10.0}).record(0.5);
    const obs::MetricsSnapshot before = reg.snapshot();

    reg.counter("hits").add(7);
    reg.gauge("depth").set(5.0);
    reg.histogram("lat").record(4.0);
    const obs::MetricsSnapshot d = reg.snapshot().delta(before);

    EXPECT_EQ(d.counters.at("hits"), 7u);   // Subtracted.
    EXPECT_DOUBLE_EQ(d.gauges.at("depth"), 5.0); // Newer value.
    EXPECT_EQ(d.histograms.at("lat").count, 1u);
    EXPECT_EQ(d.histograms.at("lat").counts[1], 1u); // The 4.0.
}

TEST(ObsMetrics, CounterSetMirrorsExternalMonotonicSources)
{
    // Counter::set is how DseEngine::publishMetrics mirrors
    // CacheCounters: absolute stores, exact snapshot deltas.
    obs::MetricsRegistry reg;
    reg.counter("ext").set(100);
    const obs::MetricsSnapshot before = reg.snapshot();
    reg.counter("ext").set(250);
    EXPECT_EQ(reg.snapshot().delta(before).counters.at("ext"), 150u);
}

TEST(ObsMetrics, SnapshotJsonHasPercentiles)
{
    obs::MetricsRegistry reg;
    reg.counter("n").add(2);
    reg.histogram("lat", {1.0, 2.0}).record(1.5);
    const std::string json = reg.snapshot().toJson();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    EXPECT_NE(json.find("\"p95\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(ObsMetrics, EnginePublishMetricsMirrorsCounters)
{
    dse::DseOptions opt;
    opt.threads = 1;
    dse::DseEngine engine(opt);
    engine.mapModel(HardwareConfig{}, makeLeNet());
    obs::MetricsRegistry reg;
    engine.publishMetrics(reg);
    const obs::MetricsSnapshot s = reg.snapshot();
    const dse::CacheCounters cc = engine.cache().counters();
    const dse::EvalCounters ec = engine.evaluator().counters();
    const std::string readme =
        slurp(std::string(LEGO_SOURCE_DIR) + "/src/obs/README.md");
    ASSERT_FALSE(readme.empty());

    // Every table row is published under its metric name with its
    // struct field's value, and documented in the obs README.
    std::set<std::string> tableMetrics;
    for (const dse::CounterRow &row : dse::kCounterRows) {
        tableMetrics.insert(row.metric);
        const std::uint64_t want =
            row.owner == dse::CounterOwner::Cache
                ? dse::counterValue(cc, row.id)
                : dse::counterValue(ec, row.id);
        if (row.kind == dse::CounterKind::Gauge) {
            ASSERT_TRUE(s.gauges.count(row.metric)) << row.metric;
            EXPECT_EQ(s.gauges.at(row.metric), double(want))
                << row.metric;
        } else {
            ASSERT_TRUE(s.counters.count(row.metric)) << row.metric;
            EXPECT_EQ(s.counters.at(row.metric), want) << row.metric;
        }
        EXPECT_NE(readme.find(std::string("`") + row.metric + "`"),
                  std::string::npos)
            << row.metric << " missing from src/obs/README.md";
    }
    // ... and no cache/evaluator counter is published off the table.
    for (const auto &kv : s.counters) {
        if (kv.first.rfind("dse.cache.", 0) == 0 ||
            kv.first.rfind("dse.eval.", 0) == 0) {
            EXPECT_TRUE(tableMetrics.count(kv.first)) << kv.first;
        }
    }
    EXPECT_GT(s.counters.at("dse.eval.model_evals"), 0u);

    // The other direction: every cache/evaluator metric the README
    // names is a table row or one of the size gauges publishMetrics
    // sets, so a deleted row cannot linger in the docs.
    const std::set<std::string> sizeGauges = {
        "dse.cache.entries", "dse.cache.frontier_entries",
        "dse.cache.segment_entries"};
    for (const std::string &g : sizeGauges)
        EXPECT_TRUE(s.gauges.count(g)) << g;
    const std::regex named("`(dse\\.(cache|eval)\\.[a-z0-9_]+)`");
    std::size_t documented = 0;
    for (std::sregex_iterator it(readme.begin(), readme.end(), named),
         end;
         it != end; ++it, ++documented) {
        const std::string name = (*it)[1];
        EXPECT_TRUE(tableMetrics.count(name) || sizeGauges.count(name))
            << name << " in src/obs/README.md is not a published metric";
    }
    EXPECT_GE(documented, tableMetrics.size() + sizeGauges.size());
}

// ---- tracer ----------------------------------------------------------

TEST(ObsTrace, GoldenJsonExport)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.clear();
    obs::Tracer::setEnabled(true);
    tracer.recordComplete("alpha", "test", 1000, 500);
    tracer.recordComplete("beta", "test", 2000, 250, "k", 8);
    obs::TraceEvent ev;
    ev.name = "gamma";
    ev.cat = "mark";
    ev.tsNs = 3000;
    ev.type = obs::EventType::Instant;
    tracer.record(ev);
    obs::Tracer::setEnabled(false);

    const std::string got = tracer.toJson("{\"case\": \"golden\"}");
    const std::string want =
        slurp(std::string(LEGO_SOURCE_DIR) +
              "/tests/golden/obs_trace.json");
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(got, want);
    tracer.clear();
}

TEST(ObsTrace, RingWrapKeepsNewestAndCountsDrops)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.clear(4); // Shrink every ring to 4 events.
    obs::Tracer::setEnabled(true);
    for (std::uint64_t i = 0; i < 10; ++i)
        tracer.recordComplete("wrap", "test", 100 * (i + 1), 10,
                              "i", i);
    obs::Tracer::setEnabled(false);

    EXPECT_EQ(tracer.recorded(), 10u);
    EXPECT_EQ(tracer.dropped(), 6u);
    const std::string json = tracer.toJson();
    // Only the newest four survive: i = 6..9.
    EXPECT_EQ(json.find("{\"i\": 5}"), std::string::npos);
    EXPECT_NE(json.find("{\"i\": 6}"), std::string::npos);
    EXPECT_NE(json.find("{\"i\": 9}"), std::string::npos);
    EXPECT_NE(json.find("\"dropped_events\": 6"), std::string::npos);
    EXPECT_NE(json.find("\"kept_events\": 4"), std::string::npos);
    tracer.clear(kDefaultRing); // Restore capacity for later tests.
}

TEST(ObsTrace, DisabledRecordsNothingViaMacros)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.clear();
    ASSERT_FALSE(obs::Tracer::enabled());
    const std::uint64_t before = tracer.recorded();
    {
        LEGO_TRACE_SPAN("off.span", "test");
        LEGO_TRACE_INSTANT("off.instant", "test");
        LEGO_TRACE_COMPLETE("off.complete", "test", 1, 1, "n", 1);
    }
    EXPECT_EQ(tracer.recorded(), before);
}

TEST(ObsTrace, CompiledOutTuRecordsNothingEvenWhenEnabled)
{
    ASSERT_TRUE(obs::testing::notraceCompiledOut());
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.clear();
    obs::Tracer::setEnabled(true);
    const std::uint64_t before = tracer.recorded();
    obs::testing::notraceEmitEvents();
    obs::Tracer::setEnabled(false);
    EXPECT_EQ(tracer.recorded(), before);
}

TEST(ObsTrace, SpanGuardRecordsWhenEnabled)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.clear();
    obs::Tracer::setEnabled(true);
    {
        LEGO_TRACE_SPAN_ARG("on.span", "test", "n", 3);
    }
    obs::Tracer::setEnabled(false);
    EXPECT_EQ(tracer.recorded(), 1u);
    const std::string json = tracer.toJson();
    EXPECT_NE(json.find("\"name\": \"on.span\""), std::string::npos);
    EXPECT_NE(json.find("{\"n\": 3}"), std::string::npos);
    tracer.clear();
}

#if LEGO_TRACE
/**
 * Tracing compiled in but disabled costs <= 2% of the headline
 * sweep (exhaustive Eyeriss boxes x RN50). The figure is derived:
 * the best-of-5 cost of one disabled span, times the spans an
 * enabled rerun of the sweep records, over the sweep's untraced
 * wall. Differencing two full-sweep walls would bury a signal this
 * small in run-to-run noise.
 */
TEST(ObsTrace, DisabledOverheadUnderTwoPercentOfHeadline)
{
    using Clock = std::chrono::steady_clock;
    const Model rn50 = makeResNet50();
    const dse::CandidateSpace space = dse::eyerissEquivalentSpace();
    dse::DseOptions opt;
    opt.threads = 1;
    ASSERT_FALSE(obs::Tracer::enabled());
    Clock::time_point t0 = Clock::now();
    dse::DseEngine(opt).explore(space, rn50);
    const double wallSec =
        std::chrono::duration<double>(Clock::now() - t0).count();

    // Best of several tight batches: scheduler noise only ever
    // inflates a batch.
    constexpr std::uint64_t kIters = 1 << 20;
    double bestSec = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
        t0 = Clock::now();
        for (std::uint64_t i = 0; i < kIters; ++i) {
            LEGO_TRACE_SPAN("test.disabled", "test");
        }
        bestSec = std::min(
            bestSec,
            std::chrono::duration<double>(Clock::now() - t0).count());
    }
    const double spanNs = bestSec / double(kIters) * 1e9;

    // Every span the sweep records, drops included: a dropped event
    // still paid its record cost.
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.clear();
    obs::Tracer::setEnabled(true);
    const std::uint64_t before = tracer.recorded();
    dse::DseEngine(opt).explore(space, rn50);
    const std::uint64_t spans = tracer.recorded() - before;
    obs::Tracer::setEnabled(false);
    tracer.clear();

    ASSERT_GT(spans, 0u);
    const double pct = 100.0 * double(spans) * spanNs * 1e-9 / wallSec;
    std::printf("disabled span %.2f ns x %llu spans / %.4f s = %.4f%%\n",
                spanNs, (unsigned long long)spans, wallSec, pct);
    EXPECT_LE(pct, 2.0);
}
#endif

// ---- build info ------------------------------------------------------

TEST(ObsBuildInfo, StampMatchesLibrary)
{
    const obs::BuildInfo &bi = obs::buildInfo();
    EXPECT_FALSE(bi.gitDescribe.empty());
    EXPECT_FALSE(bi.compiler.empty());
    EXPECT_EQ(bi.cacheFormatVersion,
              dse::CostCache::fileFormatVersion());
    EXPECT_TRUE(bi.traceCompiledIn); // This TU builds with tracing.
    EXPECT_NE(bi.oneLine().find("cache-format"), std::string::npos);
    EXPECT_NE(bi.toJson().find("\"git\""), std::string::npos);
}

// ---- serve loop: observability stays off the result path -------------

namespace
{

std::vector<serve::ServeRequest>
smallTrace()
{
    // LeNet/AlexNet keep runtimes test-friendly (same policy as
    // tests/test_serve.cc); K > 1 exercises the frontier path.
    std::vector<serve::ServeRequest> t;
    serve::ServeRequest a;
    a.id = "lenet-k1";
    a.models = {"lenet"};
    t.push_back(a);
    serve::ServeRequest b;
    b.id = "zoo-k4";
    b.models = {"lenet", "alexnet"};
    b.frontierK = 4;
    t.push_back(b);
    serve::ServeRequest c;
    c.id = "alexnet-energy";
    c.models = {"alexnet"};
    c.objective = serve::Objective::Energy;
    c.frontierK = 4;
    t.push_back(c);
    return t;
}

std::vector<serve::ServeResponse>
runServe(int threads, const serve::ServeOptions &base = {})
{
    serve::ServeOptions sopt = base;
    sopt.hw.name = "OBS-TEST";
    sopt.dse.threads = threads;
    serve::ServeLoop loop(sopt);
    for (const serve::ServeRequest &req : smallTrace())
        loop.submit(req);
    loop.drain();
    std::vector<serve::ServeResponse> out = loop.responses();
    loop.shutdown();
    return out;
}

} // namespace

TEST(ObsServe, RepliesBitIdenticalWithTracingOnOffAnyWorkerCount)
{
    obs::Tracer::instance().clear();
    obs::Tracer::setEnabled(false);
    const std::vector<serve::ServeResponse> off1 = runServe(1);

    obs::Tracer::setEnabled(true);
    const std::vector<serve::ServeResponse> on1 = runServe(1);
    const std::vector<serve::ServeResponse> on4 = runServe(4);
    obs::Tracer::setEnabled(false);
    const std::vector<serve::ServeResponse> off4 = runServe(4);

    ASSERT_EQ(off1.size(), 3u);
    ASSERT_EQ(on1.size(), 3u);
    ASSERT_EQ(on4.size(), 3u);
    ASSERT_EQ(off4.size(), 3u);
    for (std::size_t i = 0; i < off1.size(); ++i) {
        EXPECT_TRUE(off1[i].ok) << off1[i].error;
        EXPECT_TRUE(serve::sameResponse(off1[i], on1[i])) << i;
        EXPECT_TRUE(serve::sameResponse(off1[i], on4[i])) << i;
        EXPECT_TRUE(serve::sameResponse(off1[i], off4[i])) << i;
    }
    // The traced runs really did trace.
    EXPECT_GT(obs::Tracer::instance().recorded(), 0u);
    obs::Tracer::instance().clear();
}

TEST(ObsServe, ParseErrorsCarryLineAndField)
{
    serve::ServeRequest req;
    std::string err;
    EXPECT_FALSE(serve::parseRequest(
        "{\"models\": [\"lenet\"], \"k\": 0}", &req, &err));
    EXPECT_NE(err.find("field \"k\""), std::string::npos) << err;
    EXPECT_FALSE(serve::parseRequest(
        "{\"models\": [\"lenet\"], \"budget\": -1}", &req, &err));
    EXPECT_NE(err.find("field \"budget\""), std::string::npos) << err;

    serve::ServeOptions sopt;
    sopt.hw.name = "OBS-TEST";
    sopt.dse.threads = 1;
    serve::ServeLoop loop(sopt);
    EXPECT_EQ(loop.submitLine("{\"models\": [\"lenet\"], "
                              "\"budget\": \"nope\"}",
                              7),
              0u);
    loop.drain();
    const std::vector<serve::ServeResponse> rs = loop.responses();
    ASSERT_EQ(rs.size(), 1u);
    EXPECT_FALSE(rs[0].ok);
    EXPECT_EQ(rs[0].traceLine, 7u);
    EXPECT_NE(rs[0].error.find("line 7"), std::string::npos)
        << rs[0].error;
    EXPECT_NE(rs[0].error.find("field \"budget\""),
              std::string::npos)
        << rs[0].error;
}

TEST(ObsServe, AccessLogRecordsServedAndRejectedRequests)
{
    const std::string logPath = "test_obs_access.log.tmp";
    const std::string statsPath = "test_obs_stats.json.tmp";
    std::remove(logPath.c_str());
    std::remove(statsPath.c_str());
    {
        serve::ServeOptions sopt;
        sopt.hw.name = "OBS-TEST";
        sopt.dse.threads = 1;
        sopt.accessLogPath = logPath;
        sopt.statsPath = statsPath;
        serve::ServeLoop loop(sopt);
        loop.submitLine("{\"models\": [\"lenet\"]}", 1);
        loop.submitLine("this is not a request", 2);
        loop.submitLine("{\"models\": [\"lenet\"], \"k\": 4}", 3);
        loop.shutdown();
    }
    const std::string log = slurp(logPath);
    EXPECT_EQ(countLines(log), 3u) << log;
    EXPECT_NE(log.find("\"ok\": false"), std::string::npos) << log;
    EXPECT_NE(log.find("\"line\": 2"), std::string::npos) << log;
    EXPECT_NE(log.find("parse error at line 2"), std::string::npos)
        << log;

    const std::string stats = slurp(statsPath);
    EXPECT_NE(stats.find("\"build\""), std::string::npos);
    EXPECT_NE(stats.find("\"serve.requests\": 3"),
              std::string::npos)
        << stats;
    EXPECT_NE(stats.find("\"serve.errors\": 1"), std::string::npos)
        << stats;
    EXPECT_NE(stats.find("serve.request_us"), std::string::npos);
    EXPECT_NE(stats.find("dse.eval.model_evals"), std::string::npos);
    std::remove(logPath.c_str());
    std::remove(statsPath.c_str());
}

TEST(ObsServe, ServeMetricsCountRequests)
{
    serve::ServeOptions sopt;
    sopt.hw.name = "OBS-TEST";
    sopt.dse.threads = 1;
    serve::ServeLoop loop(sopt);
    for (const serve::ServeRequest &req : smallTrace())
        loop.submit(req);
    loop.drain();
    const obs::MetricsSnapshot s = loop.metrics().snapshot();
    EXPECT_EQ(s.counters.at("serve.requests"), 3u);
    EXPECT_EQ(s.counters.at("serve.errors"), 0u);
    EXPECT_EQ(s.histograms.at("serve.request_us").count, 3u);
    EXPECT_EQ(s.histograms.at("serve.sweep_us").count, 3u);
    loop.shutdown();
}
