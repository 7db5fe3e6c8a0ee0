/**
 * @file
 * Robustness tests: the deterministic fault-injection registry
 * (src/obs/failpoint), crash-safe cache persistence (per-section
 * CRCs, fsync-before-rename durability, corruption quarantine),
 * cooperative cancellation and deadlines (CancelToken through the
 * evaluator, segment search, and serving loop), overload shedding,
 * and the dispatcher's exception containment. The through-line:
 * every injected fault must degrade to a structured, observable
 * outcome — never a crash, a hang, or a silently wrong answer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "lego.hh"
#include "obs/failpoint.hh"

namespace lego
{
namespace
{

using dse::CacheLoadStatus;
using dse::CancelToken;
using dse::CostCache;
using obs::Failpoints;
using serve::Objective;
using serve::ServeLoop;
using serve::ServeOptions;
using serve::ServeRequest;
using serve::ServeResponse;

/** Every test that arms failpoints disarms them on ANY exit path —
 *  a leaked armed failpoint would fail unrelated tests at a
 *  distance. */
struct FailpointGuard
{
    ~FailpointGuard() { Failpoints::instance().disarmAll(); }
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

bool
fileExists(const std::string &path)
{
    return static_cast<bool>(std::ifstream(path));
}

/** A cache with entries in both persisted sections. */
void
fillCache(CostCache *cache)
{
    HardwareConfig hw;
    hw.dram.bandwidthGBs = 4.0; // Starved DRAM: segments dominate.
    Model m = makeLeNet();
    dse::Evaluator ev(cache);
    ev.mapModel(hw, m);            // K = 1 frontier entries.
    ev.mapModelFrontier(hw, m, 4); // K = 4 frontier entries.
    SegmentOptions sopt;
    sopt.enable = true;
    dse::searchSegments(hw, m, ev, sopt); // Segment records.
    ASSERT_GT(cache->size(), 0u);
    ASSERT_GT(cache->frontierCount(), 0u);
}

TEST(Failpoints, ArmFireDisarmAndHits)
{
    FailpointGuard guard;
    Failpoints &fp = Failpoints::instance();
    fp.resetHits();

    EXPECT_FALSE(fp.fire("robust.test.a")); // Unarmed: never fires.
    EXPECT_EQ(fp.hits("robust.test.a"), 0u);

    fp.arm("robust.test.a");
    EXPECT_TRUE(fp.armed("robust.test.a"));
    EXPECT_TRUE(fp.fire("robust.test.a"));
    EXPECT_TRUE(fp.fire("robust.test.a")); // kAlways keeps firing.
    EXPECT_EQ(fp.hits("robust.test.a"), 2u);

    fp.disarm("robust.test.a");
    EXPECT_FALSE(fp.armed("robust.test.a"));
    EXPECT_FALSE(fp.fire("robust.test.a"));
    EXPECT_EQ(fp.hits("robust.test.a"), 2u); // Hits survive disarm.
}

TEST(Failpoints, CountedArmingAutoDisarms)
{
    FailpointGuard guard;
    Failpoints &fp = Failpoints::instance();
    fp.resetHits();
    fp.arm("robust.test.counted", 2);
    EXPECT_TRUE(fp.fire("robust.test.counted"));
    EXPECT_TRUE(fp.fire("robust.test.counted"));
    EXPECT_FALSE(fp.fire("robust.test.counted")); // Spent.
    EXPECT_FALSE(fp.armed("robust.test.counted"));
    EXPECT_EQ(fp.hits("robust.test.counted"), 2u);

    // Arming with count 0 is a disarm, not an always-fire.
    fp.arm("robust.test.counted", 3);
    fp.arm("robust.test.counted", 0);
    EXPECT_FALSE(fp.fire("robust.test.counted"));
}

TEST(Failpoints, SnapshotAndMetricsPublication)
{
    FailpointGuard guard;
    Failpoints &fp = Failpoints::instance();
    fp.resetHits();
    fp.arm("robust.test.metrics", 1);
    EXPECT_TRUE(fp.fire("robust.test.metrics"));

    bool found = false;
    for (const Failpoints::Info &info : fp.snapshot())
        if (info.name == "robust.test.metrics") {
            found = true;
            EXPECT_EQ(info.hits, 1u);
            EXPECT_FALSE(info.armed); // Count-1 arming is spent.
        }
    EXPECT_TRUE(found);

    obs::MetricsRegistry reg;
    fp.publishMetrics(reg);
    EXPECT_EQ(reg.counter("failpoint.robust.test.metrics").value(),
              1u);
}

TEST(Failpoints, BuiltinSeamListIsStable)
{
    // The chaos replay and check_obs.py count on these names; a
    // rename must be deliberate.
    const std::vector<std::string> &seams = obs::builtinFailpoints();
    EXPECT_EQ(seams.size(), 8u);
    for (const char *name :
         {"cache.save.open", "cache.save.write", "cache.save.fsync",
          "cache.save.rename", "cache.save.crash",
          "cache.load.corrupt", "serve.parse", "pool.dispatch"})
        EXPECT_NE(std::find(seams.begin(), seams.end(), name),
                  seams.end())
            << name;
}

TEST(CacheCorruption, BitFlipsAnywhereAreRejected)
{
    const std::string path =
        testing::TempDir() + "lego_robust_flip.cache";
    CostCache cache;
    fillCache(&cache);
    ASSERT_TRUE(cache.save(path));
    const std::string bytes = slurp(path);
    ASSERT_GT(bytes.size(), 64u);

    // Flip one byte at a stride across the whole image (hitting
    // every section and every CRC word eventually), plus the magic
    // itself. No flipped file may ever load: the header checks or a
    // section CRC must catch it.
    std::vector<std::size_t> offsets = {0, 3, 8, 15};
    for (std::size_t at = 24; at < bytes.size();
         at += bytes.size() / 37 + 1)
        offsets.push_back(at);
    for (std::size_t at : offsets) {
        std::string bad = bytes;
        bad[at] = char(bad[at] ^ 0x40);
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            .write(bad.data(), std::streamsize(bad.size()));
        CostCache fresh;
        EXPECT_NE(fresh.loadEx(path), CacheLoadStatus::Loaded)
            << "flip at " << at;
        EXPECT_EQ(fresh.size(), 0u) << "flip at " << at;
        EXPECT_EQ(fresh.frontierCount(), 0u) << "flip at " << at;
        EXPECT_EQ(fresh.segmentCount(), 0u) << "flip at " << at;
        // The mmap'd shared tier runs the same validator.
        CostCache reader;
        EXPECT_FALSE(reader.attachShared(path)) << "flip at " << at;
        EXPECT_EQ(reader.sharedGeneration(), 0u) << "flip at " << at;
    }

    // The pristine bytes still load — the rejections were about the
    // flips, not the file.
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), std::streamsize(bytes.size()));
    CostCache intact;
    EXPECT_EQ(intact.loadEx(path), CacheLoadStatus::Loaded);
    EXPECT_EQ(intact.size(), cache.size());
    EXPECT_EQ(intact.segmentCount(), cache.segmentCount());
    CostCache reader;
    EXPECT_TRUE(reader.attachShared(path));
    std::remove(path.c_str());
}

TEST(CacheCorruption, LoadStatusClassification)
{
    const std::string path =
        testing::TempDir() + "lego_robust_status.cache";
    std::remove(path.c_str());
    CostCache cache;
    fillCache(&cache);

    CostCache probe;
    EXPECT_EQ(probe.loadEx(path), CacheLoadStatus::Missing);

    ASSERT_TRUE(cache.save(path));
    EXPECT_EQ(probe.loadEx(path), CacheLoadStatus::Loaded);

    // An old version stamp is STALE (a legitimate old file, not
    // damage) — it must not be quarantined by loadOrQuarantine.
    std::string bytes = slurp(path);
    const std::uint64_t v2 = 2;
    bytes.replace(sizeof(std::uint64_t), sizeof(v2),
                  reinterpret_cast<const char *>(&v2), sizeof(v2));
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), std::streamsize(bytes.size()));
    CostCache stale;
    EXPECT_EQ(stale.loadEx(path), CacheLoadStatus::Stale);
    EXPECT_EQ(stale.loadOrQuarantine(path), CacheLoadStatus::Stale);
    EXPECT_EQ(stale.counters().quarantined, 0u);
    EXPECT_TRUE(fileExists(path)); // Still in place.
    CostCache reader; // Nor is a stale image mapped as a shared tier.
    EXPECT_FALSE(reader.attachShared(path));
    EXPECT_EQ(reader.sharedGeneration(), 0u);
    EXPECT_FALSE(fileExists(path + ".corrupt"));
    std::remove(path.c_str());
}

TEST(CacheCorruption, QuarantineMovesFileAside)
{
    const std::string path =
        testing::TempDir() + "lego_robust_quarantine.cache";
    const std::string aside = path + ".corrupt";
    std::remove(aside.c_str());
    CostCache cache;
    fillCache(&cache);
    ASSERT_TRUE(cache.save(path));

    // Damage the tail (inside the last section's CRC coverage).
    std::string bytes = slurp(path);
    bytes[bytes.size() - 3] ^= 0x11;
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), std::streamsize(bytes.size()));

    CostCache fresh;
    EXPECT_EQ(fresh.loadOrQuarantine(path),
              CacheLoadStatus::Corrupt);
    EXPECT_EQ(fresh.counters().quarantined, 1u);
    EXPECT_EQ(fresh.size(), 0u); // Cold start.
    EXPECT_FALSE(fileExists(path));
    EXPECT_TRUE(fileExists(aside));

    // The quarantined bytes are preserved verbatim for post-mortems.
    EXPECT_EQ(slurp(aside), bytes);

    // A later save starts the path over from a clean slate.
    ASSERT_TRUE(cache.save(path));
    CostCache again;
    EXPECT_EQ(again.loadOrQuarantine(path), CacheLoadStatus::Loaded);
    EXPECT_EQ(again.counters().quarantined, 0u);
    std::remove(path.c_str());
    std::remove(aside.c_str());
}

TEST(CacheDurability, FailedSavesNeverClobberTheOldFile)
{
    FailpointGuard guard;
    const std::string path =
        testing::TempDir() + "lego_robust_durable.cache";
    CostCache cache;
    fillCache(&cache);
    ASSERT_TRUE(cache.save(path));
    const std::string good = slurp(path);

    // Every save-path fault — open, short write, fsync, rename, and
    // a crash mid-write — must leave the previous file byte-intact
    // and loadable.
    for (const char *seam :
         {"cache.save.open", "cache.save.write", "cache.save.fsync",
          "cache.save.rename", "cache.save.crash"}) {
        Failpoints::instance().arm(seam, 1);
        EXPECT_FALSE(cache.save(path)) << seam;
        Failpoints::instance().disarmAll();
        EXPECT_EQ(slurp(path), good) << seam;
        CostCache fresh;
        EXPECT_EQ(fresh.loadEx(path), CacheLoadStatus::Loaded)
            << seam;
        EXPECT_EQ(fresh.size(), cache.size()) << seam;
    }

    // The crash seam deliberately leaves a partial temp file behind
    // (that IS the simulated crash); a later clean save replaces the
    // target through the same temp path regardless.
    EXPECT_TRUE(cache.save(path));
    EXPECT_EQ(slurp(path), good);
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

TEST(CancelTokens, PreTrippedTokenStillYieldsAFrontier)
{
    // Best-so-far is never nothing: even a token that was tripped
    // before the sweep began yields >= 1 point per layer, flagged
    // degraded.
    CancelToken cancel;
    cancel.cancel();
    ASSERT_TRUE(cancel.shouldStop());
    HardwareConfig hw;
    Model m = makeLeNet();
    dse::Evaluator ev;
    std::vector<dse::MappingFrontier> fronts =
        ev.mapModelFrontier(hw, m, 4, nullptr, &cancel);
    ASSERT_EQ(fronts.size(), m.layers.size());
    for (const dse::MappingFrontier &f : fronts)
        EXPECT_GE(f.points().size(), 1u);
    EXPECT_TRUE(cancel.degraded());
}

TEST(CancelTokens, DeadlineSemantics)
{
    CancelToken fresh;
    EXPECT_FALSE(fresh.shouldStop());
    EXPECT_FALSE(fresh.degraded());

    CancelToken expired;
    expired.setDeadlineIn(0); // Expires immediately.
    EXPECT_TRUE(expired.shouldStop());

    CancelToken generous;
    generous.setDeadlineIn(1e12); // The parse-time cap; no overflow.
    EXPECT_FALSE(generous.shouldStop());
    generous.cancel(); // Cancellation overrides any deadline.
    EXPECT_TRUE(generous.shouldStop());
}

TEST(CancelTokens, ExploreStopsAtBatchBoundary)
{
    dse::DseOptions opt;
    opt.strategy = dse::StrategyKind::Exhaustive;
    dse::DseEngine engine(opt);
    dse::CandidateSpace space = dse::eyerissEquivalentSpace();
    Model m = makeLeNet();

    CancelToken cancel;
    cancel.cancel();
    dse::DseResult res = engine.explore(space, m, &cancel);
    EXPECT_TRUE(res.degraded);
    EXPECT_EQ(res.stats.evaluated, 0u); // Tripped before batch one.

    // A null token is the exact historical exploration.
    dse::DseResult full = engine.explore(space, m);
    EXPECT_FALSE(full.degraded);
    EXPECT_GT(full.stats.evaluated, 0u);
}

TEST(RobustServe, DeadlineMsParsesAndRoundTrips)
{
    ServeRequest req;
    std::string err;
    ASSERT_TRUE(serve::parseRequest(
        "{\"models\": [\"lenet\"], \"deadline_ms\": 250.5}", &req,
        &err))
        << err;
    EXPECT_DOUBLE_EQ(req.deadlineMs, 250.5);

    // Canonical form round-trips, and deadline-free requests format
    // without the key (byte-identical to the pre-deadline wire).
    const std::string line = serve::formatRequest(req);
    EXPECT_NE(line.find("\"deadline_ms\": 250.5"),
              std::string::npos);
    ServeRequest back;
    ASSERT_TRUE(serve::parseRequest(line, &back, &err)) << err;
    EXPECT_DOUBLE_EQ(back.deadlineMs, 250.5);
    back.deadlineMs = 0;
    EXPECT_EQ(serve::formatRequest(back).find("deadline_ms"),
              std::string::npos);

    // Strict: NaN / inf / negative / over-cap are loud errors that
    // cite the field.
    for (const char *bad :
         {"{\"models\": [\"lenet\"], \"deadline_ms\": nan}",
          "{\"models\": [\"lenet\"], \"deadline_ms\": inf}",
          "{\"models\": [\"lenet\"], \"deadline_ms\": -1}",
          "{\"models\": [\"lenet\"], \"deadline_ms\": 2e12}"}) {
        err.clear();
        EXPECT_FALSE(serve::parseRequest(bad, &req, &err)) << bad;
        EXPECT_NE(err.find("deadline_ms"), std::string::npos) << err;
    }
}

TEST(RobustServe, ExpiredDeadlineDegradesNeverFails)
{
    ServeOptions opt;
    ServeLoop loop(opt);
    ServeRequest req;
    req.id = "tiny-deadline";
    req.models = {"lenet", "alexnet"};
    req.frontierK = 4;
    req.deadlineMs = 1e-6; // Expired by the time the sweep starts.
    loop.submit(req);
    loop.drain();
    const std::vector<ServeResponse> rs = loop.responses();
    ASSERT_EQ(rs.size(), 1u);
    EXPECT_TRUE(rs[0].ok);
    EXPECT_TRUE(rs[0].degraded);
    ASSERT_EQ(rs[0].schedules.size(), 2u); // Never-nothing contract.
    for (const ScheduleResult &s : rs[0].schedules)
        EXPECT_GT(s.summary.totalCycles, 0u);
    EXPECT_EQ(loop.metrics().counter("serve.degraded").value(), 1u);
}

TEST(RobustServe, GenerousDeadlineIsBitIdenticalToNone)
{
    // The deadline knob must be free until it expires: the same
    // request with and without a huge deadline produces
    // sameResponse-equal answers (degraded compares too).
    auto run = [](double deadlineMs) {
        ServeOptions opt;
        ServeLoop loop(opt);
        ServeRequest req;
        req.id = "deadline-cmp";
        req.models = {"lenet"};
        req.frontierK = 4;
        req.deadlineMs = deadlineMs;
        loop.submit(req);
        loop.drain();
        return loop.responses()[0];
    };
    const ServeResponse without = run(0);
    const ServeResponse with = run(1e9);
    EXPECT_FALSE(with.degraded);
    EXPECT_TRUE(serve::sameResponse(without, with));
}

TEST(RobustServe, OverloadShedsWithRetryHint)
{
    ServeOptions opt;
    opt.maxQueueDepth = 1;
    ServeLoop loop(opt);
    // The first request holds the dispatcher long enough (a cold
    // K = 4 two-model sweep) for the burst behind it to pile up.
    ServeRequest slow;
    slow.id = "slow";
    slow.models = {"lenet", "alexnet"};
    slow.frontierK = 4;
    loop.submit(slow);
    ServeRequest quick;
    quick.models = {"lenet"};
    for (int i = 0; i < 5; ++i)
        loop.submit(quick);
    loop.drain();

    const std::vector<ServeResponse> rs = loop.responses();
    ASSERT_EQ(rs.size(), 6u);
    std::size_t shed = 0;
    for (const ServeResponse &r : rs) {
        // Responses stay dense and ordered through overload.
        EXPECT_EQ(r.seq, std::uint64_t(&r - rs.data()));
        if (r.shed) {
            ++shed;
            EXPECT_FALSE(r.ok);
            EXPECT_GT(r.retryAfterMs, 0.0);
            EXPECT_NE(r.error.find("shed"), std::string::npos);
            EXPECT_TRUE(r.schedules.empty());
        } else {
            EXPECT_TRUE(r.ok);
        }
    }
    EXPECT_GE(shed, 1u);
    EXPECT_EQ(loop.metrics().counter("serve.shed").value(), shed);
}

TEST(RobustServe, InjectedParseFaultIsIsolated)
{
    FailpointGuard guard;
    Failpoints::instance().arm("serve.parse", 1);
    ServeOptions opt;
    ServeLoop loop(opt);
    loop.submitLine("{\"models\": [\"lenet\"]}", 1);
    loop.submitLine("{\"models\": [\"lenet\"]}", 2);
    loop.drain();
    const std::vector<ServeResponse> rs = loop.responses();
    ASSERT_EQ(rs.size(), 2u);
    EXPECT_FALSE(rs[0].ok);
    EXPECT_NE(rs[0].error.find("injected parse fault"),
              std::string::npos);
    EXPECT_TRUE(rs[1].ok); // The fault consumed exactly one line.
}

TEST(RobustServe, DispatchFaultBecomesInternalErrorResponse)
{
    FailpointGuard guard;
    ServeOptions opt;
    ServeLoop loop(opt);
    ServeRequest req;
    req.models = {"lenet"};
    // Arm AFTER construction: the fault must hit the first request's
    // sweep fan-out, not some engine-setup path.
    Failpoints::instance().arm("pool.dispatch", 1);
    loop.submit(req);
    loop.submit(req);
    loop.drain();
    const std::vector<ServeResponse> rs = loop.responses();
    ASSERT_EQ(rs.size(), 2u);
    EXPECT_FALSE(rs[0].ok);
    EXPECT_EQ(rs[0].error.rfind("internal error:", 0), 0u);
    EXPECT_NE(rs[0].error.find("pool.dispatch"), std::string::npos);
    // The dispatcher survived and the next request is served
    // normally — and correctly.
    EXPECT_TRUE(rs[1].ok);
    ASSERT_EQ(rs[1].schedules.size(), 1u);
    EXPECT_EQ(loop.metrics()
                  .counter("serve.internal_errors")
                  .value(),
              1u);
}

TEST(RobustServe, QuarantinedCacheColdStartsIdentically)
{
    FailpointGuard guard;
    const std::string path =
        testing::TempDir() + "lego_robust_serve.cache";
    const std::string aside = path + ".corrupt";
    std::remove(path.c_str());
    std::remove(aside.c_str());

    ServeRequest req;
    req.id = "quarantine-cmp";
    req.models = {"lenet", "alexnet"};
    req.frontierK = 4;

    auto run = [&](bool *flushOk) {
        ServeOptions opt;
        opt.dse.cachePath = path;
        ServeLoop loop(opt);
        loop.submit(req);
        loop.drain();
        ServeResponse r = loop.responses()[0];
        const bool flushed = loop.shutdown();
        if (flushOk)
            *flushOk = flushed;
        return r;
    };

    const ServeResponse cold = run(nullptr); // Saves the cache.

    // A forced-corrupt load quarantines the file; the loop answers
    // from a cold start with the exact same schedules.
    Failpoints::instance().arm("cache.load.corrupt", 1);
    bool flushOk = false;
    const ServeResponse requarantined = run(&flushOk);
    EXPECT_TRUE(serve::sameResponse(cold, requarantined));
    EXPECT_TRUE(flushOk); // And re-saved a clean cache.
    EXPECT_TRUE(fileExists(aside));

    // The re-saved cache warm-starts: zero model evaluations.
    const ServeResponse warm = run(nullptr);
    EXPECT_TRUE(serve::sameResponse(cold, warm));
    EXPECT_EQ(warm.stats.dse.modelEvals, 0u);

    std::remove(path.c_str());
    std::remove(aside.c_str());
}

} // namespace
} // namespace lego
