/**
 * @file
 * Shared serve-load harness: a fixed-seed duplicate-burst request
 * trace and the machinery to replay it through a ServeLoop at a
 * given (maxInFlight, coalesce) configuration, cold or warm.
 *
 * Used by bench_serve_load (the load generator with its throughput
 * gate) and tests/test_serve.cc (identity and zero follower work on
 * a 240-request trace), so the workload the two gate cannot drift
 * apart.
 *
 * The trace is deterministic (LCG-seeded, no wall-clock anywhere):
 * a pool of distinct request keys over the small registry networks
 * (mixed zoos, objectives, K, a segment-search key, a deadline-class
 * key), expanded into bursts where ~70% of requests duplicate an
 * earlier key — the serving pattern coalescing exists for. Replays
 * submit the whole trace against a paused loop and release it, so
 * every configuration sees identical coalescing opportunity and the
 * response set is comparable bit for bit across configurations.
 */

#ifndef LEGO_BENCH_SERVE_LOAD_HH
#define LEGO_BENCH_SERVE_LOAD_HH

#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "lego.hh"
#include "obs/metrics.hh"

namespace lego
{
namespace bench
{

/** The distinct request pool the trace draws from: every mix the
 *  serving path supports — single nets and zoos (both orders: order
 *  is coalesce-distinct), both objectives, K in {1, 4}, a budgeted
 *  key, a segment-search key, and a generous-deadline key (the
 *  deadline CLASS dimension of the coalesce key; 1e9 ms never
 *  expires, so the exact path is preserved). */
inline std::vector<serve::ServeRequest>
distinctLoadPool()
{
    using serve::Objective;
    using serve::ServeRequest;
    auto mk = [](std::vector<std::string> models, Objective obj,
                 double budget, std::size_t k) {
        ServeRequest r;
        r.models = std::move(models);
        r.objective = obj;
        r.budget = budget;
        r.frontierK = k;
        return r;
    };
    std::vector<ServeRequest> pool;
    pool.push_back(mk({"lenet"}, Objective::Latency, 0, 1));
    pool.push_back(mk({"alexnet"}, Objective::Latency, 0, 1));
    pool.push_back(mk({"lenet"}, Objective::Latency, 0, 4));
    pool.push_back(mk({"alexnet"}, Objective::Latency, 0, 4));
    pool.push_back(
        mk({"lenet", "alexnet"}, Objective::Latency, 0, 4));
    pool.push_back(
        mk({"alexnet", "lenet"}, Objective::Latency, 0, 4));
    pool.push_back(mk({"lenet"}, Objective::Energy, 0, 4));
    pool.push_back(mk({"alexnet"}, Objective::Energy, 0, 2));
    pool.push_back(
        mk({"lenet", "alexnet"}, Objective::Latency, 1e18, 4));
    ServeRequest seg = mk({"lenet"}, Objective::Latency, 0, 2);
    seg.segment = true;
    pool.push_back(seg);
    ServeRequest dl = mk({"lenet"}, Objective::Latency, 0, 4);
    dl.deadlineMs = 1e9;
    pool.push_back(dl);
    return pool;
}

/**
 * The fixed-seed duplicate-burst trace: `requests` entries over the
 * distinct pool. Each position either starts a new burst (a fresh
 * LCG draw from the pool) or extends the current one (~70%),
 * duplicating the burst key under a new id — occasionally with the
 * model names re-cased, which is coalesce-equal but echoes its own
 * spelling in the response.
 */
inline std::vector<serve::ServeRequest>
loadTrace(std::size_t requests)
{
    const std::vector<serve::ServeRequest> pool =
        distinctLoadPool();
    std::vector<serve::ServeRequest> trace;
    trace.reserve(requests);
    std::uint64_t lcg = 0x9e3779b97f4a7c15ull; // Fixed seed.
    auto draw = [&lcg](std::uint64_t mod) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return std::size_t((lcg >> 33) % mod);
    };
    std::size_t burstKey = 0;
    for (std::size_t i = 0; i < requests; ++i) {
        const bool fresh = i == 0 || draw(10) < 3; // ~70% dupes.
        if (fresh)
            burstKey = draw(pool.size());
        serve::ServeRequest r = pool[burstKey];
        r.id = "load-" + std::to_string(i);
        if (!fresh && draw(4) == 0) // Case jitter: key-equal.
            for (std::string &m : r.models)
                m[0] = char(std::toupper(
                    static_cast<unsigned char>(m[0])));
        trace.push_back(std::move(r));
    }
    return trace;
}

/** One replay's scoreboard. */
struct LoadPassResult
{
    std::vector<serve::ServeResponse> responses;
    double wallSeconds = 0;
    double requestsPerSec = 0;
    double p50Ms = 0, p95Ms = 0, p99Ms = 0;
    double coalesceRate = 0; //!< Coalesced share of all responses.
    double shedRate = 0;     //!< Shed share of all responses.
    /** Model evaluations charged to coalesced responses — the
     *  zero-work-for-followers gate. */
    std::uint64_t followerEvals = 0;
    std::uint64_t errors = 0; //!< !ok responses that are not sheds.
};

/**
 * Replay `trace` through a fresh ServeLoop at the given window and
 * coalescing setting. cachePath "" = in-memory only; otherwise the
 * loop warm-starts from the file (cold when absent) and flushes back
 * on shutdown — run the same path twice for a cold/warm pair. The
 * wall clock covers submission through drain.
 */
inline LoadPassResult
runLoadPass(const std::vector<serve::ServeRequest> &trace,
            std::size_t maxInFlight, bool coalesce,
            const std::string &cachePath = std::string(),
            std::size_t maxQueueDepth = 0)
{
    serve::ServeOptions opt;
    opt.hw.name = "LEGO-SERVE-LOAD";
    opt.dse.threads = 1; // Work reduction, not parallelism, is the
                         // headline — keep the pool out of it.
    opt.dse.cachePath = cachePath;
    opt.maxInFlight = maxInFlight;
    opt.coalesce = coalesce;
    opt.maxQueueDepth = maxQueueDepth;
    serve::ServeLoop loop(opt);

    LoadPassResult out;
    loop.pause(); // Uniform coalescing opportunity across configs.
    const auto t0 = std::chrono::steady_clock::now();
    for (const serve::ServeRequest &req : trace)
        loop.submit(req);
    loop.resume();
    loop.drain();
    out.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    out.responses = loop.responses();
    loop.shutdown();

    std::vector<double> latencies;
    latencies.reserve(out.responses.size());
    std::uint64_t coalesced = 0, shed = 0;
    for (const serve::ServeResponse &r : out.responses) {
        latencies.push_back(r.latencyMs);
        if (r.coalesced) {
            ++coalesced;
            out.followerEvals += r.stats.dse.modelEvals;
        }
        if (r.shed)
            ++shed;
        else if (!r.ok)
            ++out.errors;
    }
    const double n = double(out.responses.size());
    out.requestsPerSec =
        out.wallSeconds > 0 ? n / out.wallSeconds : 0;
    out.coalesceRate = n > 0 ? double(coalesced) / n : 0;
    out.shedRate = n > 0 ? double(shed) / n : 0;
    out.p50Ms = obs::percentileOf(latencies, 0.50);
    out.p95Ms = obs::percentileOf(latencies, 0.95);
    out.p99Ms = obs::percentileOf(latencies, 0.99);
    return out;
}

/** Response-set identity across two passes (the comparator is the
 *  shared serve::sameResponse, which excludes load artifacts). */
inline bool
sameResponses(const std::vector<serve::ServeResponse> &a,
              const std::vector<serve::ServeResponse> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!serve::sameResponse(a[i], b[i]))
            return false;
    return true;
}

/** The four configurations (cold and warm at each window), plus
 *  the derived gates. */
struct ServeLoadNumbers
{
    std::size_t requests = 0;
    LoadPassResult w1Cold, w1Warm, w4Cold, w4Warm;
    bool identicalResponses = false; //!< All four sets, pairwise.
    std::uint64_t followerEvals = 0; //!< Across coalescing passes.
    /** Warm W4+coalesce throughput over warm W1 (the historic
     *  single-dispatch loop): the coalescing payoff, measured as a
     *  ratio so it is machine-independent. */
    double warmSpeedup = 0;
};

/** Run the full cold/warm x {1, 4} matrix. The two windows use
 *  separate cache files so each cold pass is genuinely cold; both
 *  files are removed afterwards. */
inline ServeLoadNumbers
runLoadMatrix(const std::vector<serve::ServeRequest> &trace,
              const std::string &cacheStem)
{
    ServeLoadNumbers n;
    n.requests = trace.size();
    const std::string p1 = cacheStem + ".w1.cache.tmp";
    const std::string p4 = cacheStem + ".w4.cache.tmp";
    std::remove(p1.c_str());
    std::remove(p4.c_str());
    n.w1Cold = runLoadPass(trace, 1, false, p1);
    n.w1Warm = runLoadPass(trace, 1, false, p1);
    n.w4Cold = runLoadPass(trace, 4, true, p4);
    n.w4Warm = runLoadPass(trace, 4, true, p4);
    std::remove(p1.c_str());
    std::remove(p4.c_str());
    n.identicalResponses =
        sameResponses(n.w1Cold.responses, n.w1Warm.responses) &&
        sameResponses(n.w1Cold.responses, n.w4Cold.responses) &&
        sameResponses(n.w1Cold.responses, n.w4Warm.responses);
    n.followerEvals =
        n.w4Cold.followerEvals + n.w4Warm.followerEvals;
    n.warmSpeedup = n.w1Warm.requestsPerSec > 0
                        ? n.w4Warm.requestsPerSec /
                              n.w1Warm.requestsPerSec
                        : 0;
    return n;
}

} // namespace bench
} // namespace lego

#endif // LEGO_BENCH_SERVE_LOAD_HH
