/**
 * @file
 * Tests for the serving subsystem (src/serve): request-line parsing
 * and the model registry, admission ordering and drain/shutdown
 * semantics, warm-vs-cold replay identity (same schedules
 * bit-for-bit with a >= 90% warm frontier hit rate and zero warm
 * model evaluations and frontier sweeps, on a small trace and on the
 * demo trace), replay determinism for 1 vs N workers and for
 * 1 vs N requests in flight (cold and warm), in-flight coalescing
 * (followers answered from the leader's computation with zero work,
 * also on bench/serve_load.hh's duplicate-burst trace;
 * follower deadlines isolated from the leader, dense sequence
 * numbering under shed + coalesce), per-request stats exactness
 * under overlapped execution, and the CostCache::save/load failure
 * paths serving makes routine (unwritable cache paths, truncated or
 * oversized v2 files).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "lego.hh"
#include "serve_load.hh"

namespace lego
{
namespace
{

using dse::CostCache;
using serve::Objective;
using serve::ServeLoop;
using serve::ServeOptions;
using serve::ServeRequest;
using serve::ServeResponse;

/** A small, fast trace over the little registry networks: classical
 *  K = 1, frontier K = 4, and budgeted requests (per-model budgets
 *  loose enough to always be meetable). */
std::vector<ServeRequest>
tinyTrace()
{
    auto mk = [](const char *id, std::vector<std::string> models,
                 Objective obj, double budget, std::size_t k) {
        ServeRequest r;
        r.id = id;
        r.models = std::move(models);
        r.objective = obj;
        r.budget = budget;
        r.frontierK = k;
        return r;
    };
    std::vector<ServeRequest> t;
    t.push_back(mk("lenet-classic", {"lenet"}, Objective::Latency,
                   0, 1));
    t.push_back(mk("alex-classic", {"alexnet"}, Objective::Latency,
                   0, 1));
    t.push_back(mk("pair-k4", {"lenet", "alexnet"},
                   Objective::Latency, 0, 4));
    t.push_back(mk("lenet-k4", {"lenet"}, Objective::Latency, 0, 4));
    t.push_back(
        mk("alex-minenergy", {"alexnet"}, Objective::Energy, 0, 4));
    t.push_back(mk("pair-ebudget", {"lenet", "alexnet"},
                   Objective::Latency, 1e18, 4));
    return t;
}

using serve::sameResponse;

/** Replay `trace` through a fresh loop. *flushOk reports the
 *  shutdown flush, *sweeps the frontier sweeps its engine ran. */
std::vector<ServeResponse>
replay(const std::vector<ServeRequest> &trace, int threads,
       const std::string &cachePath = std::string(),
       bool *flushOk = nullptr, std::size_t maxInFlight = 1,
       bool coalesce = false, std::uint64_t *sweeps = nullptr)
{
    ServeOptions opt;
    opt.dse.threads = threads;
    opt.dse.cachePath = cachePath;
    opt.maxInFlight = maxInFlight;
    opt.coalesce = coalesce;
    ServeLoop loop(opt);
    // Pause dispatch until the whole trace is admitted: with the
    // queue fully loaded up front, every pass sees the same
    // coalescing opportunities regardless of build speed.
    loop.pause();
    for (const ServeRequest &req : trace)
        loop.submit(req);
    loop.resume();
    loop.drain();
    std::vector<ServeResponse> responses = loop.responses();
    const bool flushed = loop.shutdown();
    if (flushOk)
        *flushOk = flushed;
    if (sweeps)
        *sweeps = loop.engine().evaluator().counters().searches;
    return responses;
}

TEST(ServeRequestParse, FullRequestAndDefaults)
{
    ServeRequest req;
    std::string err;
    ASSERT_TRUE(parseRequest(
        "{\"id\": \"r1\", \"models\": [\"lenet\", \"bert\"], "
        "\"objective\": \"energy\", \"budget\": 2.5e7, \"k\": 8}",
        &req, &err))
        << err;
    EXPECT_EQ(req.id, "r1");
    ASSERT_EQ(req.models.size(), 2u);
    EXPECT_EQ(req.models[0], "lenet");
    EXPECT_EQ(req.models[1], "bert");
    EXPECT_EQ(req.objective, Objective::Energy);
    EXPECT_DOUBLE_EQ(req.budget, 2.5e7);
    EXPECT_EQ(req.frontierK, 8u);

    // Everything but "models" is defaulted; whitespace is free-form
    // and the objective is case-insensitive.
    ASSERT_TRUE(parseRequest("  { \"models\" :[ \"lenet\" ] } ",
                             &req, &err))
        << err;
    EXPECT_TRUE(req.id.empty());
    EXPECT_EQ(req.objective, Objective::Latency);
    EXPECT_DOUBLE_EQ(req.budget, 0);
    EXPECT_EQ(req.frontierK, 1u);
    ASSERT_TRUE(parseRequest("{\"models\": [\"lenet\"], "
                             "\"objective\": \"ENERGY\"}",
                             &req, &err))
        << err;
    EXPECT_EQ(req.objective, Objective::Energy);
}

TEST(ServeRequestParse, FormatRoundTrip)
{
    // Include a request whose strings need escaping: the canonical
    // serialization must parse back identically even then.
    std::vector<ServeRequest> reqs = serve::demoTrace();
    ServeRequest tricky;
    tricky.id = "quo\"te\\slash";
    tricky.models = {"lenet"};
    reqs.push_back(tricky);
    ServeRequest precise; // Budget needing > 6 significant digits.
    precise.models = {"lenet"};
    precise.budget = 12345678.9;
    reqs.push_back(precise);
    for (const ServeRequest &req : reqs) {
        ServeRequest back;
        std::string err;
        ASSERT_TRUE(
            parseRequest(serve::formatRequest(req), &back, &err))
            << err;
        EXPECT_EQ(back.id, req.id);
        EXPECT_EQ(back.models, req.models);
        EXPECT_EQ(back.objective, req.objective);
        EXPECT_DOUBLE_EQ(back.budget, req.budget);
        EXPECT_EQ(back.frontierK, req.frontierK);
    }
}

TEST(ServeRequestParse, MalformedRequestsAreLoudErrors)
{
    const char *bad[] = {
        "",                                      // No object.
        "{\"models\": [\"lenet\"]",              // Unterminated.
        "{\"models\": []}",                      // Empty zoo.
        "{\"objective\": \"latency\"}",          // No models.
        "{\"models\": [\"lenet\"], \"mode\": \"x\"}", // Unknown key.
        "{\"models\": [\"lenet\"], \"objective\": \"both\"}",
        "{\"models\": [\"lenet\"], \"budget\": -1}",
        "{\"models\": [\"lenet\"], \"budget\": \"big\"}",
        "{\"models\": [\"lenet\"], \"budget\": nan}",
        "{\"models\": [\"lenet\"], \"budget\": inf}",
        "{\"models\": [\"lenet\"], \"k\": 0}",
        "{\"models\": [\"lenet\"], \"k\": 1.5}",
        "{\"models\": [\"lenet\"], \"k\": 1e300}", // Out of range.
        "{\"models\": [\"lenet\"], \"k\": nan}",
        "{\"models\": [\"lenet\"]} trailing",
        "{\"models\": [\"lenet\" \"bert\"]}",    // Missing comma.
    };
    for (const char *line : bad) {
        ServeRequest req;
        std::string err;
        EXPECT_FALSE(parseRequest(line, &req, &err)) << line;
        EXPECT_FALSE(err.empty()) << line;
    }
}

TEST(ServeRequestParse, TraceSkipsCommentsAndReportsLineNumbers)
{
    std::istringstream good(
        "# header comment\n"
        "\n"
        "{\"models\": [\"lenet\"]}\n"
        "   \n"
        "{\"models\": [\"bert\"], \"k\": 2}\n");
    std::vector<ServeRequest> trace;
    std::string err;
    ASSERT_TRUE(serve::parseTrace(good, &trace, &err)) << err;
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].models[0], "lenet");
    EXPECT_EQ(trace[1].frontierK, 2u);

    std::istringstream bad("{\"models\": [\"lenet\"]}\n"
                           "{\"models\": [}\n");
    trace.clear();
    EXPECT_FALSE(serve::parseTrace(bad, &trace, &err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;

    EXPECT_FALSE(serve::parseTraceFile(
        testing::TempDir() + "does_not_exist.jsonl", &trace, &err));
}

TEST(ServeRequestParse, ModelRegistry)
{
    const std::vector<std::string> names =
        serve::modelRegistryNames();
    ASSERT_FALSE(names.empty());
    for (const std::string &name : names) {
        Model m;
        EXPECT_TRUE(serve::lookupModel(name, &m)) << name;
        EXPECT_FALSE(m.layers.empty()) << name;
    }
    Model m;
    EXPECT_TRUE(serve::lookupModel("LeNet", &m)); // Case-folded.
    EXPECT_FALSE(serve::lookupModel("resnet51", &m));
}

TEST(ServeRequestParse, CheckedInTraceMatchesDemoTrace)
{
    // The compiled-in demo trace gates WarmColdIdentityAndFrontier-
    // HitRate; the checked-in jsonl gates CI's serve-smoke. They must
    // be the SAME workload, or the two gates silently diverge.
    // Regenerate the file with `lego_serve --print-trace` after
    // editing demoTrace().
    std::vector<ServeRequest> fromFile;
    std::string err;
    bool found = false;
    for (const char *path : {"examples/serve_trace.jsonl",
                             "../examples/serve_trace.jsonl"}) {
        if (serve::parseTraceFile(path, &fromFile, &err)) {
            found = true;
            break;
        }
    }
    if (!found)
        GTEST_SKIP() << "serve_trace.jsonl not reachable from cwd";
    const std::vector<ServeRequest> demo = serve::demoTrace();
    ASSERT_EQ(fromFile.size(), demo.size());
    for (std::size_t i = 0; i < demo.size(); ++i) {
        EXPECT_EQ(fromFile[i].id, demo[i].id) << i;
        EXPECT_EQ(fromFile[i].models, demo[i].models) << i;
        EXPECT_EQ(fromFile[i].objective, demo[i].objective) << i;
        EXPECT_DOUBLE_EQ(fromFile[i].budget, demo[i].budget) << i;
        EXPECT_EQ(fromFile[i].frontierK, demo[i].frontierK) << i;
        EXPECT_EQ(fromFile[i].segment, demo[i].segment) << i;
        EXPECT_EQ(fromFile[i].deadlineMs, demo[i].deadlineMs) << i;
    }
}

TEST(ServeLoop, AdmissionOrderingAndErrorIsolation)
{
    ServeOptions opt;
    opt.dse.threads = 2;
    ServeLoop loop(opt);

    ServeRequest ok1;
    ok1.models = {"lenet"};
    ServeRequest unknown;
    unknown.id = "nope";
    unknown.models = {"lenet", "no-such-model"};
    ServeRequest ok2;
    ok2.models = {"lenet"};
    ok2.frontierK = 2;

    EXPECT_EQ(loop.submit(ok1), 0u);
    EXPECT_EQ(loop.submit(unknown), 1u);
    EXPECT_EQ(loop.submitLine("{\"models\": [}"), 2u);
    EXPECT_EQ(loop.submit(ok2), 3u);
    loop.drain();

    std::vector<ServeResponse> rs = loop.responses();
    ASSERT_EQ(rs.size(), 4u);
    for (std::size_t i = 0; i < rs.size(); ++i)
        EXPECT_EQ(rs[i].seq, i);
    EXPECT_TRUE(rs[0].ok);
    EXPECT_EQ(rs[0].id, "#0"); // Unset ids default to the sequence.
    // A bad model or a bad line answers an error in place but never
    // poisons its neighbors.
    EXPECT_FALSE(rs[1].ok);
    EXPECT_NE(rs[1].error.find("no-such-model"), std::string::npos);
    EXPECT_TRUE(rs[1].schedules.empty());
    EXPECT_FALSE(rs[2].ok);
    EXPECT_NE(rs[2].error.find("parse error"), std::string::npos);
    EXPECT_TRUE(rs[3].ok);
    ASSERT_EQ(rs[3].schedules.size(), 1u);

    // drain() is reentrant: more work after a drain still serves.
    EXPECT_EQ(loop.submit(ok1), 4u);
    loop.drain();
    EXPECT_EQ(loop.responses().size(), 5u);
    EXPECT_TRUE(loop.responses()[4].ok);

    // The classical request equals the classical scheduler.
    Model lenet = makeLeNet();
    ScheduleResult ref = scheduleModel(HardwareConfig{}, lenet);
    EXPECT_TRUE(sameSchedule(rs[0].schedules[0], ref));
}

TEST(ServeLoop, ShutdownStopsAdmissionAndIsIdempotent)
{
    ServeOptions opt;
    ServeLoop loop(opt);
    ServeRequest req;
    req.models = {"lenet"};
    EXPECT_EQ(loop.submit(req), 0u);
    EXPECT_TRUE(loop.accepting());
    EXPECT_TRUE(loop.shutdown()); // No cachePath: nothing to flush.
    EXPECT_FALSE(loop.accepting());
    // Everything admitted before shutdown was answered.
    EXPECT_EQ(loop.responses().size(), 1u);
    EXPECT_TRUE(loop.responses()[0].ok);
    // Post-shutdown submissions are rejected, not queued.
    EXPECT_EQ(loop.submit(req), ServeLoop::kRejected);
    EXPECT_EQ(loop.submitLine("{\"models\": [\"lenet\"]}"),
              ServeLoop::kRejected);
    EXPECT_EQ(loop.responses().size(), 1u);
    EXPECT_TRUE(loop.shutdown()); // Idempotent.

    loop.clearResponses();
    EXPECT_TRUE(loop.responses().empty());
}

TEST(ServeLoop, WarmColdIdentityAndFrontierHitRate)
{
    const std::string path =
        testing::TempDir() + "lego_serve_warm_cold.cache";
    // The small trace, and lego_serve's demo trace (MobileNetV2 +
    // EfficientNetV2 + BERT under varying objectives, budgets and K).
    for (const std::vector<ServeRequest> &trace :
         {tinyTrace(), serve::demoTrace()}) {
        SCOPED_TRACE(trace.size());
        std::remove(path.c_str());
        bool flushOk = false;
        std::vector<ServeResponse> cold = replay(trace, 1, path,
                                                 &flushOk);
        EXPECT_TRUE(flushOk); // The cache file must have been written.
        std::uint64_t warmSweeps = 0;
        std::vector<ServeResponse> warm =
            replay(trace, 1, path, nullptr, 1, false, &warmSweeps);

        ASSERT_EQ(cold.size(), trace.size());
        ASSERT_EQ(warm.size(), trace.size());
        std::uint64_t warmEvals = 0, warmFrontHits = 0,
                      warmFrontLookups = 0;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            // No deadline, unbounded queue: the exact path, in full.
            EXPECT_TRUE(cold[i].ok) << cold[i].error;
            EXPECT_FALSE(cold[i].degraded || cold[i].shed) << i;
            // Warm answers are the cold answers, bit for bit.
            EXPECT_TRUE(sameResponse(cold[i], warm[i]))
                << "request " << i;
            warmEvals += warm[i].stats.dse.modelEvals;
            warmFrontHits += warm[i].stats.dse.frontHits;
            warmFrontLookups += warm[i].stats.dse.frontHits +
                                warm[i].stats.dse.frontMisses;
        }
        // The serving headline: a warm replay re-evaluates and
        // re-sweeps nothing and serves its frontier lookups out of
        // the persisted memo.
        EXPECT_EQ(warmEvals, 0u);
        EXPECT_EQ(warmSweeps, 0u);
        ASSERT_GT(warmFrontLookups, 0u);
        EXPECT_GE(double(warmFrontHits) / double(warmFrontLookups),
                  0.90);
    }
    std::remove(path.c_str());
}

TEST(ServeLoop, ReplayDeterministicForAnyWorkerCount)
{
    const std::vector<ServeRequest> trace = tinyTrace();
    std::vector<ServeResponse> one = replay(trace, 1);
    std::vector<ServeResponse> many = replay(trace, 4);
    ASSERT_EQ(one.size(), many.size());
    for (std::size_t i = 0; i < one.size(); ++i)
        EXPECT_TRUE(sameResponse(one[i], many[i])) << "request " << i;
}

/** tinyTrace with a duplicate burst folded in: every distinct
 *  request repeated, some with different id / model-name casing
 *  (coalesce-equal, response-visible spelling differences). */
std::vector<ServeRequest>
duplicateBurstTrace()
{
    std::vector<ServeRequest> t = tinyTrace();
    const std::size_t distinct = t.size();
    for (std::size_t i = 0; i < distinct; ++i) {
        ServeRequest dup = t[i];
        dup.id += "-again";
        t.push_back(dup);
    }
    ServeRequest cased = t[0];
    cased.id = "cased";
    for (std::string &m : cased.models)
        m[0] = char(std::toupper(static_cast<unsigned char>(m[0])));
    t.push_back(cased);
    return t;
}

TEST(ServeLoop, MaxInFlightReplayIdentityColdAndWarm)
{
    // The concurrency headline: overlapped dispatch with coalescing
    // on answers the exact same response stream as the historical
    // single-dispatcher loop — cold cache and warm cache alike.
    const std::string p1 =
        testing::TempDir() + "lego_serve_w1.cache";
    const std::string p4 =
        testing::TempDir() + "lego_serve_w4.cache";
    // The small burst trace, and the serve-load trace: ~70%
    // duplicates over mixed zoos, objectives, K, a segment key and a
    // deadline-class key.
    for (const std::vector<ServeRequest> &trace :
         {duplicateBurstTrace(), bench::loadTrace(240)}) {
        SCOPED_TRACE(trace.size());
        std::remove(p1.c_str());
        std::remove(p4.c_str());
        std::vector<ServeResponse> cold1 = replay(trace, 2, p1);
        std::vector<ServeResponse> warm1 = replay(trace, 2, p1);
        std::vector<ServeResponse> cold4 =
            replay(trace, 2, p4, nullptr, 4, true);
        std::vector<ServeResponse> warm4 =
            replay(trace, 2, p4, nullptr, 4, true);

        ASSERT_EQ(cold1.size(), trace.size());
        ASSERT_EQ(warm1.size(), trace.size());
        ASSERT_EQ(cold4.size(), trace.size());
        ASSERT_EQ(warm4.size(), trace.size());
        for (std::size_t i = 0; i < trace.size(); ++i) {
            EXPECT_TRUE(cold1[i].ok) << cold1[i].error;
            EXPECT_TRUE(sameResponse(cold1[i], warm1[i])) << i;
            EXPECT_TRUE(sameResponse(cold1[i], cold4[i])) << i;
            EXPECT_TRUE(sameResponse(cold1[i], warm4[i])) << i;
        }
        // At 4 in flight, cold and warm: no request fails, and the
        // coalesced followers do no work of their own.
        for (const std::vector<ServeResponse> *rs : {&cold4, &warm4}) {
            std::size_t followers = 0;
            for (const ServeResponse &r : *rs) {
                EXPECT_TRUE(r.ok) << r.seq << ": " << r.error;
                if (r.coalesced) {
                    ++followers;
                    EXPECT_EQ(r.stats.dse.modelEvals, 0u) << r.seq;
                }
            }
            EXPECT_GT(followers, 0u);
        }
    }
    std::remove(p1.c_str());
    std::remove(p4.c_str());
}

TEST(ServeLoop, CoalescingJoinsDuplicatesWithZeroWork)
{
    ServeOptions opt;
    opt.coalesce = true;
    ServeLoop loop(opt);
    loop.pause(); // Deterministic joins: all admitted while queued.

    ServeRequest leader;
    leader.id = "leader";
    leader.models = {"lenet", "alexnet"};
    leader.frontierK = 4;
    ServeRequest dup = leader;
    dup.id = "dup";
    ServeRequest cased = leader;
    cased.id = "cased";
    cased.models = {"LeNet", "AlexNet"}; // Key is case-folded.
    ServeRequest other; // Distinct key: must NOT coalesce.
    other.id = "other";
    other.models = {"lenet"};

    EXPECT_EQ(loop.submit(leader), 0u);
    EXPECT_EQ(loop.submit(dup), 1u);
    EXPECT_EQ(loop.submit(cased), 2u);
    EXPECT_EQ(loop.submit(other), 3u);
    loop.resume();
    loop.drain();

    std::vector<ServeResponse> rs = loop.responses();
    ASSERT_EQ(rs.size(), 4u);
    for (std::size_t i = 0; i < rs.size(); ++i) {
        EXPECT_EQ(rs[i].seq, i);
        EXPECT_TRUE(rs[i].ok) << rs[i].error;
    }
    EXPECT_FALSE(rs[0].coalesced);
    EXPECT_FALSE(rs[3].coalesced);
    for (std::size_t i : {std::size_t(1), std::size_t(2)}) {
        EXPECT_TRUE(rs[i].coalesced) << i;
        EXPECT_EQ(rs[i].leaderSeq, 0u) << i;
        // The leader's payload, bit for bit...
        ASSERT_EQ(rs[i].schedules.size(), rs[0].schedules.size());
        for (std::size_t s = 0; s < rs[i].schedules.size(); ++s)
            EXPECT_TRUE(
                sameSchedule(rs[i].schedules[s], rs[0].schedules[s]))
                << i << "/" << s;
        // ...under the follower's own identity and zero work.
        EXPECT_EQ(rs[i].stats.dse.modelEvals, 0u) << i;
        EXPECT_EQ(rs[i].stats.dse.hits, 0u) << i;
        EXPECT_EQ(rs[i].stats.dse.frontHits, 0u) << i;
    }
    EXPECT_EQ(rs[1].id, "dup");
    EXPECT_EQ(rs[2].id, "cased");
    ASSERT_EQ(rs[2].models.size(), 2u);
    EXPECT_EQ(rs[2].models[0], "LeNet"); // Its own spelling echoed.
    EXPECT_EQ(
        loop.metrics().counter("serve.coalesced").value(), 2.0);

    // A duplicate arriving AFTER the leader completed starts a fresh
    // computation — which, by determinism, answers identically.
    ServeRequest late = leader;
    late.id = "late";
    loop.submit(late);
    loop.drain();
    rs = loop.responses();
    ASSERT_EQ(rs.size(), 5u);
    EXPECT_FALSE(rs[4].coalesced);
    // Fresh computation ≠ zero stats: warm K = 4 traffic shows up
    // as frontier-memo hits (a coalesced copy records none at all).
    EXPECT_GT(rs[4].stats.dse.frontHits +
                  rs[4].stats.dse.frontMisses +
                  rs[4].stats.dse.modelEvals,
              0u);
    ASSERT_EQ(rs[4].schedules.size(), rs[0].schedules.size());
    for (std::size_t s = 0; s < rs[4].schedules.size(); ++s)
        EXPECT_TRUE(
            sameSchedule(rs[4].schedules[s], rs[0].schedules[s]));
}

TEST(ServeLoop, FollowerDeadlineNeverCancelsLeader)
{
    ServeOptions opt;
    opt.coalesce = true;
    ServeLoop loop(opt);
    loop.pause();

    // Leader with a generous deadline; follower coalesce-equal (the
    // key folds the deadline to its CLASS, not its value) but
    // already expired at admission. The follower must ride the
    // leader's computation — never arm a token that degrades it.
    ServeRequest leader;
    leader.id = "leader";
    leader.models = {"lenet"};
    leader.frontierK = 4;
    leader.deadlineMs = 1e9;
    ServeRequest expired = leader;
    expired.id = "expired";
    expired.deadlineMs = 1e-6;

    EXPECT_EQ(loop.submit(leader), 0u);
    EXPECT_EQ(loop.submit(expired), 1u);
    loop.resume();
    loop.drain();

    std::vector<ServeResponse> rs = loop.responses();
    ASSERT_EQ(rs.size(), 2u);
    EXPECT_TRUE(rs[0].ok) << rs[0].error;
    EXPECT_FALSE(rs[0].degraded); // 1e9 ms never expires in-test.
    EXPECT_FALSE(rs[0].coalesced);
    EXPECT_TRUE(rs[1].coalesced);
    EXPECT_TRUE(rs[1].ok);
    // The follower's expired deadline neither degraded the shared
    // computation nor its own copy of the answer.
    EXPECT_FALSE(rs[1].degraded);
    EXPECT_EQ(
        loop.metrics().counter("serve.degraded").value(), 0.0);
}

TEST(ServeLoop, DenseSequenceNumberingUnderShedAndCoalesce)
{
    ServeOptions opt;
    opt.coalesce = true;
    opt.maxQueueDepth = 1;
    ServeLoop loop(opt);
    loop.pause(); // Keep the leader queued while the burst arrives.

    ServeRequest leader;
    leader.id = "leader";
    leader.models = {"lenet"};
    ServeRequest dup1 = leader, dup2 = leader, distinct;
    dup1.id = "dup1";
    dup2.id = "dup2";
    distinct.id = "distinct";
    distinct.models = {"alexnet"};

    EXPECT_EQ(loop.submit(leader), 0u);   // Queued (depth 1).
    EXPECT_EQ(loop.submit(dup1), 1u);     // Joins: no queue slot.
    EXPECT_EQ(loop.submit(distinct), 2u); // Over depth: shed.
    EXPECT_EQ(loop.submit(dup2), 3u);     // Still joins, never shed.
    loop.resume();
    loop.drain();

    std::vector<ServeResponse> rs = loop.responses();
    ASSERT_EQ(rs.size(), 4u);
    // Dense 0..n-1 sequence numbering in emission order, exactly as
    // a shed-free, coalesce-free pass would number them.
    for (std::size_t i = 0; i < rs.size(); ++i)
        EXPECT_EQ(rs[i].seq, i);
    EXPECT_TRUE(rs[0].ok);
    EXPECT_TRUE(rs[1].coalesced && rs[1].ok);
    EXPECT_TRUE(rs[2].shed);
    EXPECT_FALSE(rs[2].ok);
    EXPECT_GT(rs[2].retryAfterMs, 0.0);
    EXPECT_TRUE(rs[3].coalesced && rs[3].ok);
    EXPECT_EQ(loop.metrics().counter("serve.shed").value(), 1.0);
    EXPECT_EQ(
        loop.metrics().counter("serve.coalesced").value(), 2.0);
}

TEST(ServeLoop, PerRequestStatsExactUnderOverlap)
{
    // Two requests over DISJOINT models build concurrently (the
    // serial reference is a maxInFlight = 1 loop): per-request
    // counters attributed through StatsContext must match the serial
    // numbers exactly — global-epoch deltas would smear them.
    ServeRequest a;
    a.id = "a";
    a.models = {"lenet"};
    a.frontierK = 4;
    ServeRequest b;
    b.id = "b";
    b.models = {"alexnet"};
    b.frontierK = 4;
    const std::vector<ServeRequest> trace = {a, b};

    std::vector<ServeResponse> serial = replay(trace, 2);
    std::vector<ServeResponse> overlapped =
        replay(trace, 2, std::string(), nullptr, 2);
    ASSERT_EQ(serial.size(), 2u);
    ASSERT_EQ(overlapped.size(), 2u);
    std::uint64_t totalEvals = 0;
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(sameResponse(serial[i], overlapped[i])) << i;
        EXPECT_GT(serial[i].stats.dse.modelEvals, 0u) << i;
        EXPECT_EQ(overlapped[i].stats.dse.modelEvals,
                  serial[i].stats.dse.modelEvals)
            << i;
        EXPECT_EQ(overlapped[i].stats.dse.misses,
                  serial[i].stats.dse.misses)
            << i;
        EXPECT_EQ(overlapped[i].stats.dse.mappingsPruned,
                  serial[i].stats.dse.mappingsPruned)
            << i;
        totalEvals += overlapped[i].stats.dse.modelEvals;
    }
    // Conservation: per-request attribution partitions the engine
    // total (disjoint models, so no request's work is shared).
    ServeOptions opt;
    opt.dse.threads = 2;
    opt.maxInFlight = 2;
    ServeLoop loop(opt);
    loop.pause();
    loop.submit(a);
    loop.submit(b);
    loop.resume();
    loop.drain();
    std::uint64_t perReq = 0;
    for (const ServeResponse &r : loop.responses())
        perReq += r.stats.dse.modelEvals;
    EXPECT_EQ(perReq,
              loop.engine().evaluator().counters().modelEvals);
    EXPECT_EQ(perReq, totalEvals);
}

TEST(ServeLoop, UnwritableCachePathFailsFlushNotServing)
{
    ServeOptions opt;
    opt.dse.cachePath =
        "/nonexistent-serve-dir/sub/lego_serve.cache";
    ServeLoop loop(opt);
    ServeRequest req;
    req.models = {"lenet"};
    loop.submit(req);
    loop.drain();
    EXPECT_TRUE(loop.responses()[0].ok); // Serving was unaffected...
    EXPECT_FALSE(loop.shutdown());       // ...but the flush failed.
    EXPECT_FALSE(loop.shutdown());       // Sticky status.
}

/** A cache holding K = 1 and K = 4 frontier entries, for the
 *  persistence failure-path tests. */
void
fillCache(CostCache *cache)
{
    HardwareConfig hw;
    Model m = makeLeNet();
    dse::Evaluator ev(cache);
    ev.mapModel(hw, m);                // K = 1 frontier entries.
    ev.mapModelFrontier(hw, m, 4);     // K = 4 frontier entries.
    ASSERT_GT(cache->size(), 0u);
    ASSERT_GT(cache->frontierCount(), 0u);
}

TEST(CostCachePersistence, SaveFailsOnUnwritablePaths)
{
    CostCache cache;
    fillCache(&cache);
    // Unreachable directory: the temp-file open fails.
    EXPECT_FALSE(cache.save("/nonexistent-serve-dir/sub/cache.bin"));
    // Target is a directory: the final rename fails, and the temp
    // file is cleaned up rather than left behind.
    const std::string dirTarget = testing::TempDir();
    EXPECT_FALSE(cache.save(dirTarget));
    std::ifstream tmp(dirTarget + ".tmp");
    EXPECT_FALSE(tmp.good());
}

TEST(CostCachePersistence, TruncatedAndPaddedFilesAreRejected)
{
    const std::string path =
        testing::TempDir() + "lego_serve_truncated.cache";
    CostCache cache;
    fillCache(&cache);
    ASSERT_TRUE(cache.save(path));

    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::stringstream ss;
        ss << in.rdbuf();
        bytes = ss.str();
    }
    ASSERT_GT(bytes.size(), 64u);

    // Truncations at every interesting boundary: inside the header,
    // in the frontier slot-count word, inside the frontier section and a
    // frontier entry, and one word short of complete. All must be
    // rejected wholesale, leaving the cache untouched.
    const std::size_t cuts[] = {
        8, 24, 32 + 7, bytes.size() / 2, bytes.size() - 9,
        bytes.size() - sizeof(std::uint64_t)};
    for (std::size_t cut : cuts) {
        ASSERT_LT(cut, bytes.size());
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            .write(bytes.data(), std::streamsize(cut));
        CostCache fresh;
        EXPECT_FALSE(fresh.load(path)) << "cut at " << cut;
        EXPECT_EQ(fresh.size(), 0u) << "cut at " << cut;
        EXPECT_EQ(fresh.frontierCount(), 0u) << "cut at " << cut;
    }

    // Trailing bytes past the declared sections are corruption too.
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write((bytes + std::string(8, '\0')).data(),
               std::streamsize(bytes.size() + 8));
    CostCache padded;
    EXPECT_FALSE(padded.load(path));
    EXPECT_EQ(padded.size(), 0u);

    // The untampered bytes still load — the rejections above were
    // about the tampering, not the file.
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), std::streamsize(bytes.size()));
    CostCache intact;
    EXPECT_TRUE(intact.load(path));
    EXPECT_EQ(intact.size(), cache.size());
    EXPECT_EQ(intact.frontierCount(), cache.frontierCount());
    std::remove(path.c_str());
}

} // namespace
} // namespace lego
