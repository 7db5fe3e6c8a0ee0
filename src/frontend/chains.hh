/**
 * @file
 * Heuristic-based direct interconnection planning for multi-dataflow
 * fusion (paper Section IV-C, Fig. 5).
 *
 * When one hardware design must support several spatial dataflows,
 * naively merging the per-dataflow minimum-spanning interconnections
 * is sub-optimal: overlapping broadcast chains multiply MUXes and
 * data nodes. LEGO re-plans the *direct* interconnections:
 *
 *  1. Partition the FUs of each dataflow into *chains* — the cosets
 *     of the direct-reuse lattice {ds : M_{I->D} M_{S->I} ds = 0}.
 *     Every FU of a chain can receive the shared element via direct
 *     connections.
 *  2. Process chains from shortest to longest (the paper's worked
 *     example: short chains seed data nodes that long chains reuse).
 *  3. Root candidates: FUs fed by a delay interconnection in that
 *     dataflow; if none exist, all chain members.
 *  4. Root choice: fewest possible input direct interconnections
 *     (over all dataflows), preferring FUs already holding a data
 *     node.
 *  5. Grow the chain from the root with a 0/1-BFS that traverses
 *     already-built edges for free, so existing broadcast chains are
 *     reused instead of duplicated (the paper prefers neighbors that
 *     root the longest built chains; free-edge traversal subsumes
 *     that rule).
 *
 * Afterwards delay interconnections are re-established between chain
 * roots with a per-dataflow minimum arborescence, and roots that
 * still lack a producer become memory data nodes.
 */

#ifndef LEGO_FRONTEND_CHAINS_HH
#define LEGO_FRONTEND_CHAINS_HH

#include <vector>

#include "frontend/spanning.hh"

namespace lego
{

/** One fused (workload, dataflow) configuration. */
struct FusedConfig
{
    const Workload *workload;
    DataflowMapping map;
};

/** A physical FU-to-FU connection shared across dataflow configs. */
struct PlannedEdge
{
    int from = -1;
    int to = -1;
    struct Use
    {
        int config;
        ConnKind kind;
        Int depth; //!< Programmed delay in cycles for this config.
    };
    std::vector<Use> uses;

    const Use *useFor(int config) const;
};

/** The fused interconnection plan for one operand port. */
struct PortPlan
{
    int port = -1;        //!< Operand slot (0.. inputs; -1 = output).
    bool isOutput = false;

    std::vector<PlannedEdge> edges;

    /** Per config: per FU, the chosen link (peer = edge endpoint). */
    std::vector<std::vector<FuLink>> links;

    /** Per config: FUs that access memory for this port. */
    std::vector<std::vector<int>> dataNodes;

    /** Union of data-node FUs over all configs. */
    std::vector<int> allDataNodes() const;
};

/** Planner options. */
struct FusionOptions
{
    SpanningOptions spanning;
    /**
     * When false, skip the heuristic and simply merge per-config
     * minimum-spanning interconnections (the paper's "Simply Merged"
     * baseline of Table V).
     */
    bool heuristicPlanning = true;
};

/**
 * Plan one operand port across all fused configs. `tensorOf[c]` gives
 * the tensor index of this port within config c's workload (-1 when
 * the config does not use the port).
 */
PortPlan
planPort(const std::vector<FusedConfig> &configs,
         const std::vector<int> &tensorOf, bool is_output,
         const FusionOptions &opt = {});

} // namespace lego

#endif // LEGO_FRONTEND_CHAINS_HH
