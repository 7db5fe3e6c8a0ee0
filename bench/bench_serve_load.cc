/**
 * @file
 * Serve-load generator: replays the fixed-seed duplicate-burst trace
 * (bench/serve_load.hh, 2400 requests) through the serving loop,
 * cold and warm, at maxInFlight 1 (coalescing off — the historic
 * single-dispatch loop) and maxInFlight 4 (coalescing on), and gates
 * the concurrency contract:
 *
 *  - response-set identity across all four configurations, pairwise
 *    (serve::sameResponse — the bit-reproducibility headline),
 *  - zero model evaluations charged to coalesced followers,
 *  - zero unexpected errors anywhere,
 *  - warm W4+coalesce throughput >= kMinWarmSpeedup x warm W1. On a
 *    single-core box the win is pure work reduction — followers skip
 *    their sweep AND their compose — so the ratio holds without any
 *    parallel speedup.
 *
 * Usage: bench_serve_load (no flags). The identity and zero-work
 * gates also run, on a 240-request trace, in tests/test_serve.cc.
 */

#include <cstdio>

#include "obs/build_info.hh"
#include "serve_load.hh"

using namespace lego;

namespace
{

void
printPass(const char *name, const bench::LoadPassResult &p)
{
    std::printf("%-8s %6zu req  %9.1f req/s  p50 %7.3fms  "
                "p95 %7.3fms  p99 %7.3fms  coalesce %4.1f%%  "
                "shed %4.1f%%\n",
                name, p.responses.size(), p.requestsPerSec, p.p50Ms,
                p.p95Ms, p.p99Ms, 100.0 * p.coalesceRate,
                100.0 * p.shedRate);
}

/**
 * The warm_speedup floor: Q1 - 1.5 IQR of 40 runs of this harness on
 * a 4-vCPU x86-64 Linux box (10.34x-17.54x, Q1 11.98x, Q3 15.26x),
 * so run-to-run noise does not trip it but losing most of the
 * coalescing payoff does. A ratio, so it travels between machines.
 */
constexpr double kMinWarmSpeedup = 7.0;

} // namespace

int
main()
{
    std::printf("%s\n", obs::buildInfo().oneLine().c_str());
    const std::vector<serve::ServeRequest> trace = bench::loadTrace(2400);
    std::printf("serve load: %zu requests\n", trace.size());
    const bench::ServeLoadNumbers n =
        bench::runLoadMatrix(trace, "bench_serve_load");

    printPass("w1 cold", n.w1Cold);
    printPass("w1 warm", n.w1Warm);
    printPass("w4 cold", n.w4Cold);
    printPass("w4 warm", n.w4Warm);
    std::printf("identical responses: %s\n",
                n.identicalResponses ? "yes" : "NO");
    std::printf("follower model evals: %llu\n",
                (unsigned long long)n.followerEvals);
    std::printf("warm speedup (w4+coalesce / w1): %.2fx\n",
                n.warmSpeedup);

    bool ok = true;
    if (!n.identicalResponses) {
        std::printf("FAIL: response sets diverged across "
                    "configurations\n");
        ok = false;
    }
    if (n.followerEvals != 0) {
        std::printf("FAIL: coalesced followers ran %llu model "
                    "evaluations (want 0)\n",
                    (unsigned long long)n.followerEvals);
        ok = false;
    }
    const std::uint64_t errors = n.w1Cold.errors + n.w1Warm.errors +
                                 n.w4Cold.errors + n.w4Warm.errors;
    if (errors != 0) {
        std::printf("FAIL: %llu unexpected error responses\n",
                    (unsigned long long)errors);
        ok = false;
    }
    if (n.warmSpeedup < kMinWarmSpeedup) {
        std::printf("FAIL: warm coalescing speedup %.2fx < %.1fx\n",
                    n.warmSpeedup, kMinWarmSpeedup);
        ok = false;
    }
    return ok ? 0 : 1;
}
