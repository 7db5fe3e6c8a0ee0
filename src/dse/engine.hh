/**
 * @file
 * DseEngine: the front door of the design-space exploration
 * subsystem. Drives a pluggable strategy over a CandidateSpace, fans
 * each proposed batch across a WorkerPool, scores candidates through
 * the Evaluator (performance model + chip cost roll-up) with a
 * shared memoization cache, and folds results into a Pareto archive
 * over (latency, energy, area).
 *
 * Determinism contract: for a fixed (space, model, options.seed,
 * strategy), the resulting frontier is identical for ANY worker
 * count. Randomness is confined to the strategy (reduction thread),
 * evaluations are pure functions of the candidate, and reductions
 * happen in proposal order.
 */

#ifndef LEGO_DSE_ENGINE_HH
#define LEGO_DSE_ENGINE_HH

#include <mutex>

#include "dse/evaluator.hh"
#include "dse/segment_search.hh"
#include "dse/stats_scope.hh"
#include "dse/strategy.hh"
#include "obs/metrics.hh"

namespace lego
{
namespace dse
{

struct DseOptions
{
    int threads = 1;               //!< Worker pool size.
    StrategyKind strategy = StrategyKind::Exhaustive;
    std::uint64_t seed = 0x1e90ull;
    std::size_t samples = 64;      //!< Random/Anneal/Genetic batch size.
    int rounds = 6;                //!< Anneal/Genetic mutation rounds.
    double mutation = 0.25;        //!< Genetic mutation probability.
    std::size_t maxEvals = 0;      //!< 0 = unlimited.
    /**
     * Optional persistent memo-cache file. When set, the engine
     * warm-starts from it at construction (a missing or stale file
     * just means a cold start) and saveCache() writes back to it, so
     * repeated model-zoo sweeps skip already-costed evaluations.
     */
    std::string cachePath;
    /**
     * Bound on the in-memory (L1) cache tier, applied before the
     * warm-start load: total serialized footprint in bytes across all
     * record kinds; 0 = unbounded (the historical behavior). It bounds
     * every cached frontier and segment the process holds apart from
     * the mapped shared snapshot. See CostCache::setCapacity for the
     * eviction policy.
     */
    std::uint64_t cacheMaxBytes = 0;
    /**
     * Optional published shared-cache snapshot to attach as the
     * read-mostly mmap tier (CostCache::attachShared). Independent
     * of cachePath: a serve worker typically sets ONLY this, so it
     * starts cold in L1 but warm through the mapped snapshot.
     */
    std::string sharedCachePath;
    /**
     * Evaluator reuse/pruning switches. The defaults (all on) keep
     * results bit-identical to the naive sweep; turning them off
     * exists for equivalence tests (Engine.SweepWorkIsPinned).
     */
    EvalPolicy eval;
    /**
     * Frontier width and model-level budget used by
     * mapModelComposed(). The defaults (K = 1, no budget) reproduce
     * the classical best-latency schedule bit-for-bit. mapZoo() and
     * mapModel() always run the classical K = 1 schedule and ignore
     * these knobs.
     */
    ComposeOptions compose;
};

struct DseResult
{
    ParetoArchive archive;
    DseStats stats;
    /** True when a CancelToken stopped explore() before the strategy
     *  was exhausted — the archive holds the best points found so
     *  far, not the full search's. */
    bool degraded = false;
};

class DseEngine
{
  public:
    explicit DseEngine(DseOptions opt = {});

    /**
     * Explore the hardware space against a model. A non-null
     * `cancel` is checked at batch boundaries: a tripped token ends
     * the exploration after the in-flight batch folds into the
     * archive, returning the best-so-far frontier with
     * `DseResult::degraded` set. A null token is the exact
     * historical exploration.
     */
    DseResult explore(const CandidateSpace &space, const Model &m,
                      const CancelToken *cancel = nullptr);

    /**
     * Mapping-space search on a fixed hardware instance: map every
     * layer via the memoized sweep, fanned across the pool.
     * Equivalent to scheduleModel(hw, m) but parallel and cached.
     */
    ScheduleResult mapModel(const HardwareConfig &hw, const Model &m);

    /**
     * Frontier-composing schedule under options().compose: per-layer
     * mapping frontiers of width frontierK, composed under the
     * model-level energy/latency budget. With the default compose
     * options this is mapModel() bit-for-bit.
     */
    ScheduleResult mapModelComposed(const HardwareConfig &hw,
                                    const Model &m);

    /**
     * Segmentation search through this engine's evaluator (and its
     * memo cache), accumulating the engine's dse.segment.* stats.
     * Returns the all-singleton plan when `sopt.enable` is false or
     * no pipelined segment strictly dominates its serial execution.
     */
    SegmentPlan
    searchSegmentPlan(const HardwareConfig &hw, const Model &m,
                      const SegmentOptions &sopt,
                      const CancelToken *cancel = nullptr);

    /** Cumulative segmentation-search work counters (all calls).
     *  Returned by value: searchSegmentPlan may be accumulating
     *  concurrently (overlapped serve requests), so a reference
     *  would race. */
    SegmentSearchStats segmentStats() const
    {
        std::lock_guard<std::mutex> lk(segMu_);
        return segStats_;
    }

    /**
     * Zoo-level mapping with one class table across models (see
     * Evaluator::mapZoo): classical K = 1 best-latency schedules,
     * one per model — options().compose does not apply here.
     * Cross-model shares are surfaced through
     * evaluator().counters().crossModelDeduped; for budget-composed
     * zoo schedules, run evaluator().mapZooFrontier() and
     * composeSchedule() per model.
     */
    std::vector<ScheduleResult>
    mapZoo(const HardwareConfig &hw,
           const std::vector<const Model *> &zoo);

    /** Score one explicit configuration as a DSE point. */
    DsePoint evaluate(const HardwareConfig &hw, const Model &m);

    /**
     * Stats of one window out of the StatsContext that was installed
     * for it (stats_scope.hh): the context's counters, `wallSeconds`,
     * and the cache gauges read now. Strategy-level fields
     * (proposed/evaluated/pruned) are zero — explore() fills them.
     */
    DseStats statsFrom(const StatsContext &ctx,
                       double wallSeconds) const;

    /**
     * Persist the memo cache to options().cachePath. Returns false
     * when no cache path is configured or the write failed.
     */
    bool saveCache() const;

    /**
     * Mirror every engine counter (cache tiers, evaluator work) into
     * `registry` under stable names ("dse.cache.l0_hits",
     * "dse.eval.model_evals", ... — the full map is in
     * src/obs/README.md). The sources are monotonic, so registry
     * snapshot/delta windows over them are exact when several
     * engines or subsystems are reported together.
     */
    void publishMetrics(obs::MetricsRegistry &registry) const;

    const DseOptions &options() const { return opt_; }
    CostCache &cache() { return cache_; }
    WorkerPool &pool() { return pool_; }
    const Evaluator &evaluator() const { return evaluator_; }

  private:
    DseOptions opt_;
    CostCache cache_;
    WorkerPool pool_;
    Evaluator evaluator_;
    /** Guards segStats_: searchSegmentPlan runs on any serve thread
     *  once requests overlap, and the plain-int accumulation below
     *  would otherwise race. */
    mutable std::mutex segMu_;
    SegmentSearchStats segStats_;
};

} // namespace dse
} // namespace lego

#endif // LEGO_DSE_ENGINE_HH
