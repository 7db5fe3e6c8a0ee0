/**
 * @file
 * Segmentation search: decide which contiguous chains of a model's
 * layers to spatially pipeline, and how to slice the PE array among
 * the stages. Reuses the DSE's annealing machinery (SplitMix64
 * stream + temperature-accept loop, as in strategy.cc) over a
 * segment-tree state per chainable run: split / merge moves change
 * the segmentation, resize moves shift column quanta between
 * adjacent stages. Candidate segments are costed through
 * sim/segment_cost.hh with per-stage mappings searched under the
 * slice sub-configs. Each chain run's annealer costs a distinct
 * group (start, len, cols) once and reads every later visit from a
 * per-run memo; that one costing goes through the CostCache, which
 * memoizes both the per-stage layer results and whole segment
 * records across searches.
 *
 * Determinism: the whole search runs on the calling thread and all
 * randomness lives in one SplitMix64 stream seeded from
 * SegmentOptions::seed — results are bit-identical for any worker
 * count, warm or cold cache.
 *
 * Acceptance: a pipelined segment enters the final plan only when
 * its pipelined cost STRICTLY dominates the serial execution of its
 * member layers on both (cycles, energy). Everything else decomposes
 * back to singleton segments, so enabling segmentation can never
 * produce a worse schedule than the classical path.
 */

#ifndef LEGO_DSE_SEGMENT_SEARCH_HH
#define LEGO_DSE_SEGMENT_SEARCH_HH

#include "dse/evaluator.hh"
#include "mapper/segment.hh"

namespace lego
{
namespace dse
{

/** Work counters of one searchSegments call. */
struct SegmentSearchStats
{
    std::uint64_t chainRuns = 0;      //!< Chainable runs considered.
    std::uint64_t movesTried = 0;     //!< Annealer moves proposed.
    std::uint64_t plansEvaluated = 0; //!< Distinct pipelined groups costed.
    std::uint64_t infeasible = 0;     //!< Of those, over capacity.
    std::uint64_t accepted = 0;       //!< Pipelined segments in the plan.
};

/**
 * Search a segmentation plan for `m` on `hw`. The evaluator supplies
 * the per-stage mapping searches (and its CostCache, when present,
 * memoizes both the per-stage layer results and whole segment
 * records). Returns the all-singleton plan when `opt.enable` is
 * false or nothing dominates.
 *
 * A non-null `cancel` bounds the search: annealing rounds stop at
 * the first tripped check and the best state found so far is
 * emitted (still strict-domination filtered, so a truncated search
 * can only fall back toward the serial plan, never below it).
 * Segment records computed under a tripped token never enter the
 * CostCache; the per-run memo that holds them ends with the search.
 */
SegmentPlan searchSegments(const HardwareConfig &hw, const Model &m,
                           const Evaluator &ev,
                           const SegmentOptions &opt,
                           SegmentSearchStats *stats = nullptr,
                           const CancelToken *cancel = nullptr);

} // namespace dse
} // namespace lego

#endif // LEGO_DSE_SEGMENT_SEARCH_HH
