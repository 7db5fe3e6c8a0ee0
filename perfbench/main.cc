/**
 * @file
 * The benchmark's measuring program. Usage:
 *
 *   lego_bench --workload <name> --seed <n> --seconds <s>
 *              [--trace-out <chrome-trace.json>]
 *
 * Untraced runs (no --trace-out) report the end-to-end metrics;
 * traced runs enable obs::Tracer, report the per-layer counts, and
 * write the Chrome trace. The last stdout line is one JSON object
 * (correct, attempted, failed, dropped_events, metrics); perfbench/run.py
 * completes it with the span-derived metrics.
 */

#include <cstdlib>
#include <thread>

#include "common.hh"

namespace perfbench
{

int
nproc()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

} // namespace perfbench

using namespace perfbench;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: lego_bench --workload <gen_scale|gen_kernels|"
                 "serve_zoo|dse_explore> --seed <n> --seconds <s> "
                 "[--trace-out <file>]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (k == "--trace-out")
            a.traceOut = v;
        else
            return usage();
    }
    if (argc % 2 == 0)
        return usage();
    a.trace = !a.traceOut.empty();

    RunResult r;
    if (a.trace) // Room for a traced pass of every workload.
        lego::obs::Tracer::instance().clear(std::size_t(1) << 18);
    if (a.workload == "gen_scale" || a.workload == "gen_kernels")
        runGen(a, r);
    else if (a.workload == "serve_zoo")
        runServe(a, r);
    else if (a.workload == "dse_explore")
        runExplore(a, r);
    else
        return usage();

    std::uint64_t dropped = 0;
    if (a.trace) {
        lego::obs::Tracer &t = lego::obs::Tracer::instance();
        dropped = t.dropped();
        if (!t.writeJson(a.traceOut)) {
            std::fprintf(stderr, "lego_bench: cannot write %s\n",
                         a.traceOut.c_str());
            return 1;
        }
    } else {
        r.metrics["peak_rss_mb"] = peakRssMb();
    }
    const bool correct = r.tally.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"dropped_events\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(r.tally.attempted),
                static_cast<unsigned long long>(r.tally.failed),
                static_cast<unsigned long long>(dropped));
    const char *sep = "";
    for (const auto &kv : r.metrics) {
        // JSON has no infinity: a failed request's latency prints as
        // the largest double.
        const double v = std::isfinite(kv.second) ? kv.second : 1.7e308;
        std::printf("%s\"%s\": %.17g", sep, kv.first.c_str(), v);
        sep = ", ";
    }
    std::printf("}}\n");
    return 0;
}
