/**
 * @file
 * Segment-valued scheduling (SET-style inter-layer pipelining). A
 * schedule is a partition of the model's layer list into ordered
 * contiguous segments. A singleton segment runs its layer serially
 * on the whole array — the classical schedule is exactly the
 * all-singleton plan. A pipelined segment runs a producer/consumer
 * chain concurrently on disjoint column slices, streaming
 * intermediates through on-chip buffers (sim/segment_cost.hh).
 *
 * The types here are the mapper-level vocabulary: the plan (what the
 * DSE's segmentation search produces), the knobs, and the composer
 * entry that applies a plan on top of the frontier composition. The
 * search itself lives in dse/segment_search.{hh,cc}.
 */

#ifndef LEGO_MAPPER_SEGMENT_HH
#define LEGO_MAPPER_SEGMENT_HH

#include <cstdint>
#include <vector>

#include "model/layer.hh"
#include "sim/segment_cost.hh"

namespace lego
{

/** One segment of a segment-valued schedule. */
struct Segment
{
    std::size_t first = 0; //!< Index of the first member layer.
    std::size_t len = 1;   //!< Member layer count (1 = singleton).
    /**
     * Resolved per-stage data when pipelined (len == stages.size()):
     * each member layer's slice width, mapping under the slice's
     * sub-config, and its simulated stage result. Empty for
     * singleton segments — the baseline composition already carries
     * their per-layer decision.
     */
    std::vector<SegmentStage> stages;
    SegmentCost cost; //!< Pipelined cost; valid when pipelined().

    bool pipelined() const { return len > 1; }
};

/** Ordered segments covering every layer of a model exactly once. */
struct SegmentPlan
{
    std::vector<Segment> segments;

    /** True when no segment is pipelined (the degenerate plan). */
    bool allSingleton() const
    {
        for (const Segment &s : segments)
            if (s.pipelined())
                return false;
        return true;
    }
};

/** Segmentation knobs (rides along in ComposeOptions). */
struct SegmentOptions
{
    bool enable = false; //!< Off: classical per-layer scheduling.
    int maxStages = 4;   //!< Max layers sharing the array at once.
};

/** The degenerate plan: one singleton segment per layer. */
SegmentPlan singletonPlan(const Model &m);

/**
 * Maximal contiguous runs of pipeline-chainable tensor layers
 * (chainable() holds across every adjacent pair), as (first, len)
 * with len >= 2. These are the only regions a pipelined segment may
 * occupy; PPU layers and shape breaks split them.
 */
std::vector<std::pair<std::size_t, std::size_t>>
chainRuns(const Model &m);

} // namespace lego

#endif // LEGO_MAPPER_SEGMENT_HH
