#include "dse/evaluator.hh"

#include <algorithm>
#include <limits>

#include "dse/stats_scope.hh"
#include "obs/trace.hh"

namespace lego
{
namespace dse
{

namespace
{

/** Candidate tile sizes: geometric ladder up to the dim. */
std::vector<Int>
tileCandidates(Int dim)
{
    std::vector<Int> out;
    for (Int t = 16; t < dim; t *= 4)
        out.push_back(t);
    out.push_back(dim);
    return out;
}

/**
 * Append the fitsL1-filtered tilings of one dataflow in canonical
 * (tm, tn, tk) order. The tile ladders are hoisted to the caller so
 * the triple loop never reallocates them.
 */
void
appendTilings(const HardwareConfig &hw, DataflowTag df, Int m, Int n,
              Int k, const std::vector<Int> &tms,
              const std::vector<Int> &tns, const std::vector<Int> &tks,
              std::vector<Mapping> *out)
{
    for (Int tm : tms)
        for (Int tn : tns)
            for (Int tk : tks) {
                if (!fitsL1(hw, std::min(tm, m), std::min(tn, n),
                            std::min(tk, k)))
                    continue;
                out->push_back(Mapping{df, tm, tn, tk});
            }
}

} // namespace

bool
betterResult(const LayerResult &r, const LayerResult &best)
{
    return r.cycles < best.cycles ||
           (r.cycles == best.cycles && r.energyPj < best.energyPj) ||
           (r.cycles == best.cycles && r.energyPj == best.energyPj &&
            r.utilization > best.utilization);
}

bool
fitsL1(const HardwareConfig &hw, Int tm, Int tn, Int tk)
{
    // Operands at the datapath width, accumulators always 24-bit.
    Int operand = (tm * tk + tk * tn) * Int(hw.dataBits) / 8;
    Int partial = tm * tn * 3;
    return 2 * (operand + partial) <= hw.l1Kb * 1024;
}

bool
feasible(const HardwareConfig &hw, const Layer &l)
{
    if (!l.isTensorOp())
        return true;
    // The smallest entry of tileCandidates(dim) is min(16, dim).
    return fitsL1(hw, std::min<Int>(16, l.gemmM()),
                  std::min<Int>(16, l.gemmN()),
                  std::min<Int>(16, l.gemmK()));
}

bool
feasible(const HardwareConfig &hw, const Model &m)
{
    for (const Layer &l : m.layers)
        if (!feasible(hw, l))
            return false;
    return true;
}

std::vector<Mapping>
mappingCandidates(const HardwareConfig &hw, const Layer &l)
{
    std::vector<Mapping> out;
    if (!l.isTensorOp())
        return out;
    const Int m = l.gemmM(), n = l.gemmN(), k = l.gemmK();
    const std::vector<Int> tms = tileCandidates(m);
    const std::vector<Int> tns = tileCandidates(n);
    const std::vector<Int> tks = tileCandidates(k);
    out.reserve(hw.dataflows.size() * tms.size() * tns.size() *
                tks.size());
    for (DataflowTag df : hw.dataflows)
        appendTilings(hw, df, m, n, k, tms, tns, tks, &out);
    return out;
}

LayerResult
Evaluator::scoredRunLayer(const HardwareConfig &hw, const Layer &l,
                          const Mapping &map, double spatialEff) const
{
    bumpStat(stats_, CounterId::modelEvals);
    return runLayerWithEff(hw, l, map, spatialEff);
}

MappingFrontier
Evaluator::sweepFrontier(const HardwareConfig &hw, const Layer &l,
                         std::size_t cap,
                         const CancelToken *cancel) const
{
    LEGO_TRACE_SPAN_ARG("dse.sweepFrontier", "dse", "k", cap);
    MappingFrontier front(cap);
    const Int m = l.gemmM(), n = l.gemmN(), k = l.gemmK();
    const std::vector<Int> tms = tileCandidates(m);
    const std::vector<Int> tns = tileCandidates(n);
    const std::vector<Int> tks = tileCandidates(k);

    // All candidates in canonical order, with the per-dataflow spans
    // (the spatial efficiency is computed once per dataflow and
    // shared by all of its tilings).
    struct DataflowSpan
    {
        std::size_t begin = 0, end = 0;
        double se = 0;
    };
    std::vector<Mapping> cands;
    std::vector<DataflowSpan> spans;
    for (DataflowTag df : hw.dataflows) {
        DataflowSpan span;
        span.begin = cands.size();
        span.se = spatialEfficiency(hw, l, df);
        appendTilings(hw, df, m, n, k, tms, tns, tks, &cands);
        span.end = cands.size();
        if (span.end > span.begin)
            spans.push_back(span);
    }
    auto seOf = [&](std::size_t i) {
        for (const DataflowSpan &s : spans)
            if (i < s.end)
                return s.se;
        return 0.0; // Unreachable: every candidate is in a span.
    };

    if (!policy_.pruneMappings) {
        // Naive reference: evaluate every candidate in canonical
        // order into an UNBOUNDED frontier, then keep the sorted
        // prefix. Unbounded insertion is insertion-order independent
        // (no capacity trim can discard a point that later
        // dominations would re-admit), so the kept prefix is the
        // true top-K of the full non-dominated set.
        MappingFrontier full(0);
        for (std::size_t i = 0; i < cands.size(); ++i) {
            if (cancel && cancel->shouldStop()) {
                // Best-so-far truncation: the frontier built from
                // the candidates already evaluated is returned as-is.
                cancel->noteDegraded();
                break;
            }
            FrontierPoint p;
            p.mapping = cands[i];
            p.result = scoredRunLayer(hw, l, cands[i], seOf(i));
            p.seq = i;
            full.insert(p);
        }
        for (std::size_t i = 0;
             i < full.size() && i < cap; ++i)
            front.insert(full.points()[i]);
    } else if (!cands.empty()) {
        // Branch-and-bound: admit candidates of ALL dataflows in one
        // globally ascending order of the exact cycle bound (the
        // bound IS the true cycle count — sim/perf.hh mappingCycles
        // shares the cycle model with runLayerWithEff; bounds are
        // batch-evaluated per dataflow span). Under ascending-cycles
        // insertion a new point can never dominate a strictly-faster
        // kept point, so capacity trimming is exact, and once the
        // frontier is full every remaining candidate with a bound
        // past the worst kept point can only be trimmed — one global
        // cut ends the sweep with the kept set equal to the naive
        // path's top-K prefix. stable_sort keeps equal-cycle
        // candidates in canonical order, preserving tie-breaks. At
        // K = 1 this is the classical incumbent cut.
        std::vector<Int> bounds(cands.size());
        for (const DataflowSpan &s : spans)
            mappingCyclesBatch(hw, l, cands.data() + s.begin,
                               s.end - s.begin, s.se,
                               bounds.data() + s.begin);
        std::vector<std::size_t> order(cands.size());
        for (std::size_t i = 0; i < cands.size(); ++i)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return bounds[a] < bounds[b];
                         });
        std::vector<std::size_t> evalsPerSpan(spans.size(), 0);
        auto spanOf = [&](std::size_t i) {
            for (std::size_t s = 0; s < spans.size(); ++s)
                if (i < spans[s].end)
                    return s;
            return spans.size() - 1;
        };
        for (std::size_t oi = 0; oi < order.size(); ++oi) {
            const std::size_t i = order[oi];
            if (front.atCapacity() &&
                bounds[i] > front.worst().result.cycles) {
                bumpStat(stats_, CounterId::mappingsPruned,
                         order.size() - oi);
                break;
            }
            // Deadline check AFTER the bound cut: a sweep the cut
            // would have ended anyway is complete, not degraded.
            if (cancel && cancel->shouldStop()) {
                cancel->noteDegraded();
                break;
            }
            const std::size_t s = spanOf(i);
            ++evalsPerSpan[s];
            FrontierPoint p;
            p.mapping = cands[i];
            p.result = scoredRunLayer(hw, l, cands[i], spans[s].se);
            p.seq = i;
            front.insert(p);
        }
        // Dataflows cut wholesale: not one of their tilings was
        // worth evaluating against the frontier.
        for (std::size_t s = 0; s < spans.size(); ++s)
            if (evalsPerSpan[s] == 0)
                bumpStat(stats_, CounterId::dataflowsPruned);
    }

    if (front.empty()) {
        // Nothing fit: smallest tiles as a fallback, clamped to the
        // problem so a tiny GEMM never reports a tile larger than
        // its own dimension.
        FrontierPoint p;
        p.mapping = Mapping{hw.dataflows.front(), std::min<Int>(16, m),
                            std::min<Int>(16, n), std::min<Int>(16, k)};
        p.result = scoredRunLayer(
            hw, l, p.mapping,
            spatialEfficiency(hw, l, p.mapping.dataflow));
        p.seq = 0;
        front.insert(p);
    }
    return front;
}

MappingFrontier
Evaluator::searchMappingFrontier(const HardwareConfig &hw,
                                 const Layer &l, std::size_t k,
                                 const CancelToken *cancel) const
{
    LEGO_TRACE_SPAN_ARG("dse.search", "dse", "k", k);
    const std::size_t cap = k == 0 ? 1 : k;
    if (!l.isTensorOp()) {
        // No tilings to sweep: one closed-form PPU costing.
        MappingFrontier front(cap);
        FrontierPoint p;
        p.result = runPpuLayer(hw, l);
        front.insert(p);
        return front;
    }

    // Frontier memo, at every K: a hit skips the sweep and does not
    // count as a search.
    const bool memo = cache_ && policy_.memoFrontiers;
    CacheKey fkey;
    if (memo) {
        fkey = makeFrontierKey(hw, l, cap);
        std::vector<FrontierPoint> pts;
        if (cache_->lookupFrontier(fkey, &pts)) {
            MappingFrontier front(cap);
            for (const FrontierPoint &p : pts)
                front.insert(p);
            return front;
        }
    }
    bumpStat(stats_, CounterId::searches);
    MappingFrontier front = sweepFrontier(hw, l, cap, cancel);
    // Never memoize under a tripped token: the sweep may have been
    // truncated, and a cached partial frontier would degrade LATER
    // deadline-free requests (shouldStop is monotonic, so any sweep
    // that truncated still reads as tripped here).
    if (memo && !(cancel && cancel->shouldStop()))
        cache_->insertFrontier(fkey, front.points());
    return front;
}

MappedLayer
Evaluator::searchMapping(const HardwareConfig &hw, const Layer &l,
                         const CancelToken *cancel) const
{
    MappingFrontier front = searchMappingFrontier(hw, l, 1, cancel);
    MappedLayer best;
    best.mapping = front.best().mapping;
    best.result = front.best().result;
    return best;
}

std::vector<MappingFrontier>
Evaluator::mapModelFrontier(const HardwareConfig &hw, const Model &m,
                            std::size_t k, WorkerPool *pool,
                            const CancelToken *cancel) const
{
    LEGO_TRACE_SPAN_ARG("dse.mapModelFrontier", "dse", "layers",
                        m.layers.size());
    const std::size_t cap = k == 0 ? 1 : k;
    // Re-install the submitting thread's stats context inside each
    // pool item: shared workers interleave items of overlapping
    // requests, and each item's counters must credit the request
    // that asked for it (stats_scope.hh).
    StatsContext *const statsCtx = StatsContext::current();
    // Search one representative per class and broadcast: class
    // members produce bit-identical frontiers by construction (the
    // signature covers every field the sweep reads).
    const std::vector<LayerClass> classes = layerClasses(m);
    std::vector<MappingFrontier> byClass(classes.size(),
                                         MappingFrontier(cap));
    auto mapOne = [&](std::size_t c) {
        StatsContext::Scope scope(statsCtx);
        byClass[c] = searchMappingFrontier(
            hw, m.layers[classes[c].representative], cap, cancel);
    };
    if (pool) {
        pool->parallelFor(classes.size(), mapOne);
    } else {
        for (std::size_t c = 0; c < classes.size(); ++c)
            mapOne(c);
    }
    std::vector<MappingFrontier> fronts(m.layers.size(),
                                        MappingFrontier(cap));
    for (std::size_t c = 0; c < classes.size(); ++c)
        for (std::size_t idx : classes[c].members)
            fronts[idx] = byClass[c];
    bumpStat(stats_, CounterId::layersDeduped,
             m.layers.size() - classes.size());
    return fronts;
}

ScheduleResult
Evaluator::mapModel(const HardwareConfig &hw, const Model &m,
                    WorkerPool *pool) const
{
    // K = 1, no budget: the composer selects each layer's single
    // frontier point — the classical best-latency schedule.
    return composeSchedule(m, mapModelFrontier(hw, m, 1, pool),
                           ComposeOptions{});
}

std::vector<std::vector<MappingFrontier>>
Evaluator::mapZooFrontier(const HardwareConfig &hw,
                          const std::vector<const Model *> &zoo,
                          std::size_t k, WorkerPool *pool,
                          const CancelToken *cancel) const
{
    LEGO_TRACE_SPAN_ARG("dse.mapZooFrontier", "dse", "models",
                        zoo.size());
    const std::size_t cap = k == 0 ? 1 : k;
    std::vector<std::vector<MappingFrontier>> fronts(zoo.size());
    if (!policy_.dedupLayerClasses) {
        for (std::size_t mi = 0; mi < zoo.size(); ++mi)
            fronts[mi] =
                mapModelFrontier(hw, *zoo[mi], cap, pool, cancel);
        return fronts;
    }
    for (std::size_t mi = 0; mi < zoo.size(); ++mi)
        fronts[mi].assign(zoo[mi]->layers.size(),
                          MappingFrontier(cap));

    // One class table across the whole zoo: shape-identical layers
    // of *different* models broadcast from the same search. As in
    // mapModelFrontier, each pool item re-installs the submitting
    // thread's stats context for exact per-request attribution.
    StatsContext *const statsCtx = StatsContext::current();
    const std::vector<ZooLayerClass> classes =
        groupLayerClassesZoo(zoo);
    std::vector<MappingFrontier> byClass(classes.size(),
                                         MappingFrontier(cap));
    auto mapOne = [&](std::size_t c) {
        StatsContext::Scope scope(statsCtx);
        const ZooLayerRef &rep = classes[c].representative;
        byClass[c] = searchMappingFrontier(
            hw, zoo[rep.model]->layers[rep.layer], cap, cancel);
    };
    if (pool) {
        pool->parallelFor(classes.size(), mapOne);
    } else {
        for (std::size_t c = 0; c < classes.size(); ++c)
            mapOne(c);
    }
    std::size_t totalLayers = 0, crossModel = 0;
    for (std::size_t mi = 0; mi < zoo.size(); ++mi)
        totalLayers += zoo[mi]->layers.size();
    for (std::size_t c = 0; c < classes.size(); ++c) {
        for (const ZooLayerRef &ref : classes[c].members)
            fronts[ref.model][ref.layer] = byClass[c];
        crossModel += classes[c].distinctModels - 1;
    }
    bumpStat(stats_, CounterId::layersDeduped,
             totalLayers - classes.size());
    bumpStat(stats_, CounterId::crossModelDeduped, crossModel);
    return fronts;
}

std::vector<ScheduleResult>
Evaluator::mapZoo(const HardwareConfig &hw,
                  const std::vector<const Model *> &zoo,
                  WorkerPool *pool) const
{
    return composeZoo(zoo, mapZooFrontier(hw, zoo, 1, pool),
                      ComposeOptions{});
}

std::vector<LayerClass>
Evaluator::layerClasses(const Model &m) const
{
    if (policy_.dedupLayerClasses)
        return groupLayerClasses(m);
    std::vector<LayerClass> classes(m.layers.size());
    for (std::size_t i = 0; i < classes.size(); ++i) {
        classes[i].representative = i;
        classes[i].members = {i};
    }
    return classes;
}

DsePoint
Evaluator::evaluate(const HardwareConfig &hw, const Model &m,
                    std::size_t id) const
{
    return evaluate(hw, m, layerClasses(m), id);
}

DsePoint
Evaluator::evaluate(const HardwareConfig &hw, const Model &m,
                    const std::vector<LayerClass> &classes,
                    std::size_t id) const
{
    DsePoint p;
    p.id = id;
    p.hw = hw;
    // Searches stay on the calling worker thread. Summing in layer
    // order replays composeSchedule's unbudgeted accumulate
    // sequence, so the point is bit-identical to mapModel's summary.
    std::vector<LayerResult> byClass(classes.size());
    std::vector<const LayerResult *> perLayer(m.layers.size());
    for (std::size_t c = 0; c < classes.size(); ++c) {
        byClass[c] = searchMappingFrontier(
                         hw, m.layers[classes[c].representative], 1)
                         .best()
                         .result;
        for (std::size_t idx : classes[c].members)
            perLayer[idx] = &byClass[c];
    }
    bumpStat(stats_, CounterId::layersDeduped,
             m.layers.size() - classes.size());
    for (std::size_t i = 0; i < m.layers.size(); ++i)
        accumulate(p.summary, *perLayer[i], m.layers[i].isTensorOp(),
                   m.layers[i].repeat);
    ChipCost cost = archCost(hw);
    p.latencyCycles = double(p.summary.totalCycles);
    p.energyPj = p.summary.totalEnergyPj;
    p.areaMm2 = cost.totalAreaMm2();
    p.powerMw = cost.totalPowerMw();
    return p;
}

} // namespace dse
} // namespace lego
