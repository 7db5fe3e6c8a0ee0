/**
 * @file
 * Shared plumbing of the benchmark: command-line arguments, the
 * clock, bench-side trace spans, the per-run result record and its
 * JSON line, output digests, and small statistics helpers.
 *
 * Each workload runner fills one RunResult. main.cc prints it as the
 * last line of stdout; perfbench/run.py adds the span-derived
 * per-layer metrics from the Chrome trace and prints the final line.
 */

#ifndef LEGO_PERFBENCH_COMMON_HH
#define LEGO_PERFBENCH_COMMON_HH

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/types.hh"
#include "dse/strategy.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace perfbench
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut; //!< Chrome trace path (traced runs).
};

inline double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Bench-side spans are lego::obs::SpanGuard(name, kBenchCat, arg,
 * value): recorded through the program's own tracer, so bench spans
 * and the program's spans share one timeline. The argument names the
 * design / request / model a span belongs to; perfbench/run.py uses
 * it to group the exported trace.
 */
using lego::obs::SpanGuard;
constexpr const char *kBenchCat = "bench";

/** Failures counted against attempts; feeds the result line. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one checked operation. */
    void check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         what.c_str());
        }
    }
};

/** What one workload run reports. */
struct RunResult
{
    Tally tally;
    /** Traced runs trace exactly one pass, so the span sums
     *  perfbench/run.py derives are per pass. */
    std::map<std::string, double> metrics;
};

/** The output digests: the repo's FNV-1a 64 over raw bytes. */
class Digest
{
  public:
    void bytes(const void *p, std::size_t n)
    {
        const unsigned char *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i)
            h_ = lego::fnv1aByte(h_, b[i]);
    }
    template <typename T> void pod(const T &v) { bytes(&v, sizeof v); }
    void str(const std::string &s)
    {
        pod(s.size());
        bytes(s.data(), s.size());
    }
    std::string hex() const
    {
        char buf[24];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = lego::kFnv1aOffset;
};

inline void
printDigest(const char *kind, const std::string &name,
            const Digest &d)
{
    std::printf("digest %s %s %s\n", kind, name.c_str(),
                d.hex().c_str());
}

/** Nearest-rank percentile (q in [0, 1]); +inf entries sort last. */
inline double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t rank =
        std::size_t(std::ceil(q * double(v.size())));
    rank = std::min(std::max<std::size_t>(rank, 1), v.size());
    return v[rank - 1];
}

inline double
median(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

/**
 * op_p50_ms and op_p99_ms: each pass's percentiles of its op
 * latencies, and their medians over the run's passes. A burst of
 * host noise that slows a few passes then does not set the run's
 * tail, as it would in percentiles pooled over all ops.
 */
struct OpPercentiles
{
    std::vector<double> p50, p99;

    void addPass(const std::vector<double> &opMs)
    {
        p50.push_back(percentile(opMs, 0.50));
        p99.push_back(percentile(opMs, 0.99));
    }
    void report(std::map<std::string, double> &m) const
    {
        m["op_p50_ms"] = median(p50);
        m["op_p99_ms"] = median(p99);
    }
};

inline double
hitRate(std::uint64_t hits, std::uint64_t misses)
{
    return hits + misses ? double(hits) / double(hits + misses) : 0;
}

/** Sum of a process-global histogram of the program (e.g. the worker
 *  pool's pool.run_us), for deltas around a traced pass. */
inline double
histogramSum(const char *name)
{
    return lego::obs::MetricsRegistry::global()
        .histogram(name)
        .snapshot()
        .sum;
}

inline double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux: KiB.
}

/**
 * The setup_s metric: repeat `setup`, timing batches of calls, and
 * return the median seconds per call. A batch holds enough calls to
 * take about a millisecond (one call for a set-up longer than that),
 * so a set-up of a few microseconds is not timed one call at a time.
 * Batches repeat until there are at least `minBatches` and at least
 * half a second has passed. On a shared VM one set-up ran up to 1.8x
 * slower on one vCPU than on another, and a process tends to stay on
 * the vCPU it started on. So the calling thread moves to the next CPU
 * it may use before each batch (the move is not timed), and the
 * median covers all of them. The last call's products stay in
 * whatever `setup` writes to.
 */
template <typename Fn>
double
medianSetup(int minBatches, Fn &&setup)
{
    cpu_set_t allowed;
    sched_getaffinity(0, sizeof allowed, &allowed);
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);
    double t0 = nowS();
    setup();
    const int calls =
        std::max(1, int(std::lround(1e-3 / std::max(nowS() - t0, 1e-9))));
    std::vector<double> t;
    const double start = nowS();
    while (int(t.size()) < minBatches || nowS() - start < 0.5) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[t.size() % cpus.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
        t0 = nowS();
        for (int i = 0; i < calls; ++i)
            setup();
        t.push_back((nowS() - t0) / calls);
    }
    // Threads started later inherit the caller's affinity.
    sched_setaffinity(0, sizeof allowed, &allowed);
    return median(t);
}

template <typename T>
void
shuffle(std::vector<T> &v, lego::dse::SplitMix64 &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/** Worker threads the load may use (the machine's core count). */
int nproc();

void runGen(const Args &a, RunResult &r);
void runServe(const Args &a, RunResult &r);
void runExplore(const Args &a, RunResult &r);

} // namespace perfbench

#endif // LEGO_PERFBENCH_COMMON_HH
