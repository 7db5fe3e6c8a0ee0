#include "dse/engine.hh"

#include <chrono>
#include <unordered_set>
#include <utility>

#include "obs/trace.hh"

namespace lego
{
namespace dse
{

DseEngine::DseEngine(DseOptions opt)
    : opt_(std::move(opt)), cache_(), pool_(opt_.threads),
      evaluator_(&cache_, opt_.eval)
{
    // Capacity first, so even the warm-start load below respects the
    // bound (a persisted cache larger than the budget evicts down
    // during the merge instead of overshooting).
    cache_.setCapacity(opt_.cacheMaxBytes);
    // Warm-start from the persisted cache when one is configured; a
    // missing or stale (schema-mismatched) file is just a cold
    // start, and a CORRUPT file is quarantined to `<path>.corrupt`
    // so the next saveCache() starts from a clean slate.
    if (!opt_.cachePath.empty())
        cache_.loadOrQuarantine(opt_.cachePath);
    // Attach the read-mostly mmap tier last: a not-yet-published
    // snapshot is fine (refreshShared picks it up later).
    if (!opt_.sharedCachePath.empty())
        cache_.attachShared(opt_.sharedCachePath);
}

bool
DseEngine::saveCache() const
{
    if (opt_.cachePath.empty())
        return false;
    return cache_.save(opt_.cachePath);
}

DseStats
DseEngine::statsFrom(const StatsContext &ctx, double wallSeconds) const
{
    DseStats s = ctx.read<DseStats>();
    // Gauges are whole-cache readings at window close, not
    // attributions (a StatsContext cannot carry a point-in-time
    // footprint).
    const CacheCounters cc = cache_.counters();
    DseStats::visit(
        [&](CounterId c, std::uint64_t &v) {
            if (counterRow(c).kind == CounterKind::Gauge)
                v = counterValue(cc, c);
        },
        s);
    s.wallSeconds = wallSeconds;
    return s;
}

void
DseEngine::publishMetrics(obs::MetricsRegistry &registry) const
{
    const auto publish = [&](CounterId c, std::uint64_t v) {
        const CounterRow &row = counterRow(c);
        if (row.kind == CounterKind::Gauge)
            registry.gauge(row.metric).set(double(v));
        else
            registry.counter(row.metric).set(v);
    };
    CacheCounters::visit(publish, cache_.counters());
    EvalCounters::visit(publish, evaluator_.counters());
    const SegmentSearchStats seg = segmentStats();
    registry.counter("dse.segment.runs").set(seg.chainRuns);
    registry.counter("dse.segment.plans").set(seg.plansEvaluated);
    registry.counter("dse.segment.infeasible").set(seg.infeasible);
    registry.counter("dse.segment.accepted").set(seg.accepted);
    registry.gauge("dse.cache.entries").set(double(cache_.size()));
    registry.gauge("dse.cache.frontier_entries")
        .set(double(cache_.frontierCount()));
    registry.gauge("dse.cache.segment_entries")
        .set(double(cache_.segmentCount()));
}

DseResult
DseEngine::explore(const CandidateSpace &space, const Model &m,
                   const CancelToken *cancel)
{
    LEGO_TRACE_SPAN_ARG("dse.explore", "dse", "space",
                        space.size());
    // Per-call stats context, re-installed inside every pool item
    // so work on shared workers credits this call (stats_scope.hh).
    StatsContext statsCtx;
    StatsContext::Scope statsScope(&statsCtx);
    const auto start = std::chrono::steady_clock::now();
    DseResult res;

    StrategyOptions sopt;
    sopt.seed = opt_.seed;
    sopt.samples = opt_.samples;
    sopt.rounds = opt_.rounds;
    sopt.mutation = opt_.mutation;
    sopt.model = &m;
    std::unique_ptr<Strategy> strat =
        makeStrategy(opt_.strategy, sopt);

    // One class table for every candidate of this call.
    const std::vector<LayerClass> classes = evaluator_.layerClasses(m);

    // Every candidate is scored at most once per explore() call;
    // strategies are free to re-propose ids.
    std::unordered_set<std::size_t> evaluated;

    for (;;) {
        // Batch boundary is the cancellation chunk: everything
        // already evaluated has folded into the archive, so stopping
        // here returns a coherent best-so-far frontier.
        if (cancel && cancel->shouldStop()) {
            cancel->noteDegraded();
            res.degraded = true;
            break;
        }
        std::vector<std::size_t> batch =
            strat->nextBatch(space, res.archive);
        if (batch.empty())
            break;
        res.stats.proposed += batch.size();

        // Fresh ids only, preserving proposal order.
        std::vector<std::size_t> fresh;
        for (std::size_t id : batch) {
            if (evaluated.count(id))
                continue;
            if (opt_.maxEvals &&
                res.stats.evaluated + fresh.size() >= opt_.maxEvals)
                break;
            evaluated.insert(id);
            fresh.push_back(id);
        }

        // Fan the batch across the pool; each slot is written by
        // exactly one worker.
        LEGO_TRACE_SPAN_ARG("dse.exploreBatch", "dse", "n",
                            fresh.size());
        std::vector<DsePoint> points(fresh.size());
        pool_.parallelFor(fresh.size(), [&](std::size_t i) {
            StatsContext::Scope scope(&statsCtx);
            points[i] =
                evaluator_.evaluate(space.decode(fresh[i]), m,
                                    classes, fresh[i]);
        });

        // Ordered reduction: archive updates in proposal order.
        for (const DsePoint &p : points)
            res.archive.insert(p);
        res.stats.evaluated += fresh.size();
        if (opt_.maxEvals && res.stats.evaluated >= opt_.maxEvals)
            break;
    }

    // The strategy-level numbers accumulated above are preserved.
    const std::size_t proposed = res.stats.proposed;
    const std::size_t evaluatedCount = res.stats.evaluated;
    res.stats = statsFrom(
        statsCtx, std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count());
    res.stats.proposed = proposed;
    res.stats.evaluated = evaluatedCount;
    res.stats.pruned = strat->pruned();
    return res;
}

ScheduleResult
DseEngine::mapModel(const HardwareConfig &hw, const Model &m)
{
    LEGO_TRACE_SPAN_ARG("dse.mapModel", "dse", "layers",
                        m.layers.size());
    return evaluator_.mapModel(hw, m, &pool_);
}

ScheduleResult
DseEngine::mapModelComposed(const HardwareConfig &hw, const Model &m)
{
    LEGO_TRACE_SPAN_ARG("dse.mapModelComposed", "dse", "k",
                        opt_.compose.frontierK);
    std::vector<MappingFrontier> fronts = evaluator_.mapModelFrontier(
        hw, m, opt_.compose.frontierK, &pool_);
    LEGO_TRACE_SPAN_ARG("dse.compose", "dse", "layers",
                        fronts.size());
    if (!opt_.compose.segment.enable)
        return composeSchedule(m, std::move(fronts), opt_.compose);
    const SegmentPlan plan =
        searchSegmentPlan(hw, m, opt_.compose.segment);
    return composeSchedule(m, std::move(fronts), opt_.compose, plan);
}

SegmentPlan
DseEngine::searchSegmentPlan(const HardwareConfig &hw, const Model &m,
                             const SegmentOptions &sopt,
                             const CancelToken *cancel)
{
    SegmentSearchStats stats;
    SegmentPlan plan =
        searchSegments(hw, m, evaluator_, sopt, &stats, cancel);
    // Overlapped serve requests run this from several threads; the
    // plain-int accumulation must be serialized (the search itself
    // is independent per call — only the roll-up is shared).
    std::lock_guard<std::mutex> lk(segMu_);
    segStats_.chainRuns += stats.chainRuns;
    segStats_.plansEvaluated += stats.plansEvaluated;
    segStats_.infeasible += stats.infeasible;
    segStats_.accepted += stats.accepted;
    return plan;
}

std::vector<ScheduleResult>
DseEngine::mapZoo(const HardwareConfig &hw,
                  const std::vector<const Model *> &zoo)
{
    LEGO_TRACE_SPAN_ARG("dse.mapZoo", "dse", "models", zoo.size());
    return evaluator_.mapZoo(hw, zoo, &pool_);
}

DsePoint
DseEngine::evaluate(const HardwareConfig &hw, const Model &m)
{
    return evaluator_.evaluate(hw, m);
}

} // namespace dse
} // namespace lego
