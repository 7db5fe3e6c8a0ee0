/**
 * @file
 * Metrics for the DSE engine and serving loop: named monotonic
 * counters, gauges, and fixed-bucket latency histograms with
 * p50/p95/p99 extraction, collected in a registry with a
 * snapshot/delta API.
 *
 * This is the serving-system complement of the trace layer
 * (obs/trace.hh): traces answer "what did THIS request/sweep do",
 * metrics answer "what has the process been doing" — request rates,
 * queue-wait and request-latency distributions, cache tier hits.
 * DseEngine::publishMetrics mirrors every row of the DSE counter
 * table (src/dse/counters.hh, which names each counter's metric;
 * listed in src/obs/README.md) into a registry, so one
 * MetricsSnapshot::delta covers engine work, cache tiers, pool
 * contention, and serve traffic in one shot.
 *
 * All recording paths are wait-free (relaxed atomics, CAS loops for
 * doubles) and observational only: metrics never feed back into
 * scheduling decisions.
 */

#ifndef LEGO_OBS_METRICS_HH
#define LEGO_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lego
{
namespace obs
{

/** Add to an atomic double (C++17 has no fetch_add for doubles). */
void atomicAdd(std::atomic<double> *target, double v);
/** Lower/raise an atomic double to include v. */
void atomicMin(std::atomic<double> *target, double v);
void atomicMax(std::atomic<double> *target, double v);

/**
 * Monotonic counter. add() for in-process events; set() mirrors an
 * EXTERNAL monotonic counter (e.g. CostCache::counters() fields)
 * into the registry so snapshot deltas subtract correctly.
 */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }
    void set(std::uint64_t v)
    {
        v_.store(v, std::memory_order_relaxed);
    }
    std::uint64_t value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/** Last-write-wins instantaneous value (queue depth, hit rate...). */
class Gauge
{
  public:
    void set(double v) { v_.store(v, std::memory_order_relaxed); }
    double value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> v_{0};
};

/**
 * Fixed-bucket histogram. Bucket i counts values v with
 * bounds[i-1] < v <= bounds[i]; one implicit overflow bucket counts
 * v > bounds.back(). Recording is two relaxed increments plus CAS
 * loops for sum/min/max — safe from any thread.
 */
class Histogram
{
  public:
    /** `bounds` must be ascending and non-empty. */
    explicit Histogram(std::vector<double> bounds);

    void record(double v);

    struct Snapshot
    {
        std::vector<double> bounds; //!< Upper bucket edges.
        /** bounds.size() + 1 counts (last = overflow). */
        std::vector<std::uint64_t> counts;
        std::uint64_t count = 0;
        double sum = 0;
        double min = 0; //!< 0 when count == 0.
        double max = 0;

        /**
         * Deterministic percentile (q in [0, 1]): the upper edge of
         * the bucket holding the ceil(q * count)-th smallest sample
         * (rank clamped to >= 1); the overflow bucket reports the
         * observed max. 0 when empty. Exact-by-definition, so tests
         * can assert equality.
         */
        double percentile(double q) const;
        double mean() const { return count ? sum / count : 0; }

        /** Bucket-wise delta against an OLDER snapshot of the same
         *  histogram. min/max are kept from *this (they cannot be
         *  windowed); mismatched bounds return *this unchanged. */
        Snapshot delta(const Snapshot &older) const;
    };

    Snapshot snapshot() const;
    const std::vector<double> &bounds() const { return bounds_; }

  private:
    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0};
    std::atomic<double> min_{0};
    std::atomic<double> max_{0};
    std::atomic<bool> any_{false};
};

/**
 * Default latency bucket edges in microseconds: a 1-2-5 ladder from
 * 1 us to 5e9 us (~83 min), 29 buckets — wide enough for a span of a
 * single cache probe up to a cold multi-model sweep.
 */
std::vector<double> defaultLatencyBucketsUs();

/**
 * Exact nearest-rank percentile over raw samples (sorts a copy):
 * the ceil(q * n)-th smallest sample. The reference the histogram
 * percentile approximates; used where full sample sets are cheap
 * (bench_serve_load per-request latencies).
 */
double percentileOf(std::vector<double> samples, double q);

/** Every metric of a registry at one point in time. */
struct MetricsSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, Histogram::Snapshot> histograms;

    /**
     * Window against an OLDER snapshot: counters and histogram
     * buckets subtract; gauges keep this snapshot's value. Metrics
     * absent from `older` keep their full value.
     */
    MetricsSnapshot delta(const MetricsSnapshot &older) const;

    /**
     * Deterministically ordered JSON object:
     * {"counters": {...}, "gauges": {...}, "histograms": {"name":
     * {"count":, "sum":, "min":, "max":, "mean":, "p50":, "p95":,
     * "p99":, "buckets": [[edge, count], ...]}}}.
     */
    std::string toJson() const;
};

/**
 * Named metric registry. Creation takes a mutex once per name;
 * returned references are stable for the registry's lifetime, so
 * hot paths hold the reference and never re-look-up. global() is
 * the process-wide instance library instrumentation records into;
 * tests may build private registries.
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    /** `bounds` applies on first creation only (empty = default
     *  latency buckets). */
    Histogram &histogram(const std::string &name,
                         std::vector<double> bounds = {});

    MetricsSnapshot snapshot() const;

    static MetricsRegistry &global();

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace obs
} // namespace lego

#endif // LEGO_OBS_METRICS_HH
