/**
 * @file
 * Segmentation search: decide which contiguous chains of a model's
 * layers to spatially pipeline, and how to slice the PE array among
 * the stages. The search is exact over group boundaries: a dynamic
 * program over each chainable run's prefixes (bestSegmentation)
 * takes every layer alone or in a group of 2..maxStages layers,
 * whichever sum of group costs is least. A group's columns start
 * from a MAC-rate-balanced split (initCols) and are polished by a
 * greedy hill-climb over single column-quantum shifts. Candidate
 * segments are costed through sim/segment_cost.hh with per-stage
 * mappings searched under the slice sub-configs. Each chain run
 * costs a distinct group (start, len, cols) once and reads every
 * later visit from a per-run memo; that one costing goes through the
 * CostCache, which memoizes both the per-stage layer results and
 * whole segment records across searches.
 *
 * Determinism: the search has no randomness and runs on the calling
 * thread, so results are bit-identical for any worker count, warm or
 * cold cache.
 *
 * Acceptance: a pipelined group is a candidate only when its
 * pipelined cost STRICTLY dominates the serial execution of its
 * member layers on both (cycles, energy). Every layer can always
 * stay a singleton, so enabling segmentation can never produce a
 * worse schedule than the classical path.
 */

#ifndef LEGO_DSE_SEGMENT_SEARCH_HH
#define LEGO_DSE_SEGMENT_SEARCH_HH

#include <functional>
#include <optional>
#include <vector>

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
    std::uint64_t plansEvaluated = 0; //!< Distinct pipelined groups costed.
    std::uint64_t infeasible = 0;     //!< Of those, over capacity.
    std::uint64_t accepted = 0;       //!< Pipelined segments in the plan.
};

/** Cost of pipelining layers [start, start + len) of a run, or
 *  nothing when that group does not qualify. */
using GroupCostFn = std::function<std::optional<double>(
    std::size_t start, std::size_t len)>;

/**
 * Least-cost segmentation of one run of `singles.size()` layers,
 * exact over group boundaries. Layer i alone costs `singles[i]`; a
 * group of 2..maxStages layers costs what `group` returns. `group`
 * is called once per such (start, len), in order of the group's end,
 * then its length. On equal cost the earlier option wins: a
 * singleton, then the shorter group. Returns the group lengths in
 * layer order (1 = singleton).
 */
std::vector<std::size_t>
bestSegmentation(const std::vector<double> &singles, int maxStages,
                 const GroupCostFn &group);

/**
 * Search a segmentation plan for `m` on `hw`. The evaluator supplies
 * the per-stage mapping searches (and its CostCache, when present,
 * memoizes both the per-stage layer results and whole segment
 * records). Returns the all-singleton plan when `opt.enable` is
 * false or nothing dominates.
 *
 * A non-null `cancel` bounds the search: at the first tripped check
 * (one per group) the search notes degradation, costs no further
 * group, and extends every remaining prefix with singletons only, so
 * a truncated search can only fall back toward the serial plan,
 * never below it. Segment records computed under a tripped token
 * never enter the CostCache; the per-run memo that holds them ends
 * with the search.
 */
SegmentPlan searchSegments(const HardwareConfig &hw, const Model &m,
                           const Evaluator &ev,
                           const SegmentOptions &opt,
                           SegmentSearchStats *stats = nullptr,
                           const CancelToken *cancel = nullptr);

} // namespace dse
} // namespace lego

#endif // LEGO_DSE_SEGMENT_SEARCH_HH
