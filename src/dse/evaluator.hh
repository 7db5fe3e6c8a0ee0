/**
 * @file
 * Candidate evaluation engine: scores hardware candidates through the
 * existing layer performance model (runLayer) and chip cost roll-up
 * (archCost). Owns THE mapping-search implementation (the mapper's
 * mapLayer/scheduleModel are thin clients), which is
 * *frontier-valued*: searchMappingFrontier sweeps a layer's mapping
 * candidates and keeps a bounded Pareto frontier over (cycles,
 * energy) — the scalar searchMapping is its K = 1 projection and is
 * bit-identical to the historical best-mapping search. Four
 * accelerations:
 *
 *  - layer-class deduplication: mapModel groups shape-identical
 *    layers (model/layer_class.hh) and searches each class once,
 *    broadcasting the result to every instance; mapZoo extends the
 *    class table across *models*, so multi-network sweeps share
 *    searches too (cross-model hits counted separately);
 *  - bound-based pruning: the candidates of ALL dataflows are
 *    admitted in one globally ascending order of the exact cycle
 *    bound (sim/perf.hh mappingCycles, batch-evaluated over each
 *    dataflow's contiguous candidate span), and ONE global cut ends
 *    the sweep once the bound passes the WORST KEPT point of a full
 *    frontier — at K = 1 this is exactly the classical incumbent
 *    cut, firing right after the minimum-bound candidate's ties;
 *  - spatialEfficiency is computed once per (hw, layer, dataflow)
 *    and shared by every tiling candidate of that dataflow;
 *  - whole frontiers are memoized per (hw, layer, K), at every K, in
 *    an optional CostCache — a two-level lookup: the bounded sharded
 *    L1 (LRU-evicted past its setCapacity budget), then the optional
 *    mmap'd shared snapshot tier probed copy-free. Single tilings are never memoized: runLayerWithEff
 *    is closed-form and cheaper to recompute than to look up.
 *
 * All optimizations preserve the exact result of the naive sweep:
 * the bound equals the true cycle count, ties keep their canonical
 * order, and class members are shape-identical by construction. The
 * naive path stays available through EvalPolicy for equivalence
 * tests and perf baselines.
 */

#ifndef LEGO_DSE_EVALUATOR_HH
#define LEGO_DSE_EVALUATOR_HH

#include "dse/cancel.hh"
#include "dse/cost_cache.hh"
#include "dse/counters.hh"
#include "dse/pareto.hh"
#include "dse/worker_pool.hh"
#include "mapper/schedule.hh"
#include "model/layer_class.hh"
#include "model/models.hh"

namespace lego
{
namespace dse
{

/**
 * Candidate tiling/dataflow mappings for one tensor layer on one
 * hardware instance, in the canonical sweep order (dataflow-major,
 * then tm/tn/tk). Non-tensor layers have no mappings.
 */
std::vector<Mapping> mappingCandidates(const HardwareConfig &hw,
                                       const Layer &l);

/**
 * Does a (tm, tn, tk) GEMM tile fit the L1 buffers double-buffered?
 * Operand footprints are counted at the datapath width
 * (`hw.dataBits`); partial sums are always 24-bit accumulators.
 * This is THE fit rule: the mapping sweep and the feasibility
 * pruning below must agree on it.
 */
bool fitsL1(const HardwareConfig &hw, Int tm, Int tn, Int tk);

/**
 * Can the hardware's L1 hold at least the *smallest* candidate tile
 * of the layer? A candidate failing this for any layer of a model
 * can only ever be costed through the degenerate fallback mapping,
 * so exhaustive search may skip it (StrategyKind::PrunedExhaustive).
 */
bool feasible(const HardwareConfig &hw, const Layer &l);

/** feasible() over every layer of a model. */
bool feasible(const HardwareConfig &hw, const Model &m);

/**
 * THE tie-breaking order on layer results (cycles, then energy, then
 * utilization — the paper's VI-A mapping search). Shared by every
 * client that ranks mappings; do not re-implement it. The mapping
 * frontier's (objectives..., tie) order reduces to exactly this
 * order at K = 1.
 */
bool betterResult(const LayerResult &r, const LayerResult &best);

/**
 * Reuse/pruning switches of the evaluator. All default on; the
 * naive configuration reproduces the pre-optimization exhaustive
 * sweep bit-for-bit and exists for equivalence tests.
 */
struct EvalPolicy
{
    bool dedupLayerClasses = true; //!< Search one layer per class.
    bool pruneMappings = true;     //!< Branch-and-bound the sweep.
    /** Memoize whole frontiers per (hw, layer, K), at every K. Off,
     *  every search sweeps even with a cache attached. */
    bool memoFrontiers = true;
};

class Evaluator
{
  public:
    /** cache may be null: every search then sweeps. */
    explicit Evaluator(CostCache *cache = nullptr,
                       EvalPolicy policy = EvalPolicy())
        : cache_(cache), policy_(policy)
    {}

    /**
     * Sweep the layer's mapping candidates into a Pareto frontier
     * over (cycles, energy) keeping at most k points (k = 0 is
     * treated as 1), in deterministic (cycles, energy, utilization,
     * sweep-ordinal) order. With pruning enabled, candidates whose
     * cycle bound exceeds the worst kept point of a full frontier
     * are cut — the kept set is bit-identical to the unpruned
     * sweep's. The frontier's best point IS the scalar search
     * answer.
     *
     * A non-null `cancel` makes the sweep best-effort: once the
     * token trips, remaining candidates are skipped (noteDegraded is
     * recorded) and the frontier built so far is returned — always
     * holding at least one point, so composition never starves. A
     * null token is the exact historical sweep. Truncated frontiers
     * are never memoized (see cancel.hh).
     */
    MappingFrontier
    searchMappingFrontier(const HardwareConfig &hw, const Layer &l,
                          std::size_t k,
                          const CancelToken *cancel = nullptr) const;

    /**
     * Scalar projection: the best point of the K = 1 frontier.
     * Bit-identical to the historical exhaustive best-mapping sweep.
     */
    MappedLayer
    searchMapping(const HardwareConfig &hw, const Layer &l,
                  const CancelToken *cancel = nullptr) const;

    /**
     * Per-layer frontiers for every layer of the model (aligned with
     * m.layers), fanning the per-class sweeps across `pool` (inline
     * when null) and broadcasting across shape-identical layers.
     */
    std::vector<MappingFrontier>
    mapModelFrontier(const HardwareConfig &hw, const Model &m,
                     std::size_t k, WorkerPool *pool = nullptr,
                     const CancelToken *cancel = nullptr) const;

    /**
     * Map every layer of the model at K = 1 and aggregate —
     * equivalent to scheduleModel but parallel, memoized, and
     * deduplicated across shape-identical layers.
     */
    ScheduleResult mapModel(const HardwareConfig &hw, const Model &m,
                            WorkerPool *pool = nullptr) const;

    /**
     * Zoo-level mapping: per-layer frontiers for every model of a
     * zoo, sharing one class table ACROSS models so shape-identical
     * layers of different networks are searched once. Returns one
     * frontier vector per model (aligned with that model's layers).
     * Cross-model broadcasts are counted in
     * counters().crossModelDeduped.
     */
    std::vector<std::vector<MappingFrontier>>
    mapZooFrontier(const HardwareConfig &hw,
                   const std::vector<const Model *> &zoo,
                   std::size_t k, WorkerPool *pool = nullptr,
                   const CancelToken *cancel = nullptr) const;

    /** mapZooFrontier at K = 1, composed into per-model schedules —
     *  bit-identical to mapModel on each model separately. */
    std::vector<ScheduleResult>
    mapZoo(const HardwareConfig &hw,
           const std::vector<const Model *> &zoo,
           WorkerPool *pool = nullptr) const;

    /** Score one hardware candidate on a model as a DSE point. */
    DsePoint evaluate(const HardwareConfig &hw, const Model &m,
                      std::size_t id = 0) const;

    CostCache *cache() const { return cache_; }
    const EvalPolicy &policy() const { return policy_; }

    /** Snapshot of the reuse/pruning work counters (monotonic,
     *  any-thread exact; modelEvals counts THIS evaluator's runs even
     *  when other engines evaluate concurrently in the process). */
    EvalCounters counters() const
    {
        return stats_.read<EvalCounters>();
    }

  private:
    LayerResult scoredRunLayer(const HardwareConfig &hw,
                               const Layer &l, const Mapping &map,
                               double spatialEff) const;
    MappingFrontier sweepFrontier(const HardwareConfig &hw,
                                  const Layer &l, std::size_t cap,
                                  const CancelToken *cancel) const;

    CostCache *cache_;
    EvalPolicy policy_;
    /** Every Eval row of counters.hh. */
    mutable CounterBlock stats_;
};

} // namespace dse
} // namespace lego

#endif // LEGO_DSE_EVALUATOR_HH
