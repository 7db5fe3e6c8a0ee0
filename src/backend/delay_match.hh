/**
 * @file
 * Delay matching on the DAG (paper Section V-A, Eq. 10-11).
 *
 * Assigns an arrival time D_v to every node and inserts EL_{u,v} =
 * D_v - D_u - L_v >= 0 pipeline registers on each edge so that all
 * input pins of every primitive receive data from the same logical
 * cycle. The objective min sum EL * width is solved exactly via the
 * difference-constraint LP (lp/diffcon.hh, a min-cost-flow dual).
 *
 * Per-config programmed delays (FIFO depths, control skews) are
 * excluded from the LP: the front end derives them from the same
 * affine algebra on every reconvergent path, so they are balanced by
 * construction; only the static primitive latencies need matching.
 */

#ifndef LEGO_BACKEND_DELAY_MATCH_HH
#define LEGO_BACKEND_DELAY_MATCH_HH

#include "backend/dag.hh"
#include "lp/netflow.hh"

namespace lego
{

/** Result summary of a delay-matching run. */
struct DelayMatchStats
{
    Int insertedRegs = 0;    //!< Total EL over edges.
    Int insertedRegBits = 0; //!< Sum of EL * width (LP objective).
    FlowStats lp;            //!< The LP solver's work.
};

/**
 * Run delay matching, writing EL into DagEdge::regs. Existing regs
 * are replaced. Returns the inserted-register statistics.
 */
DelayMatchStats runDelayMatching(Dag &dag);

/**
 * Logic-depth pipelining: walk every config's active subgraph
 * accumulating combinational levels (adder-equivalents) and register
 * the output of any node whose path depth exceeds the per-cycle
 * budget (sets node latency to 1). Long adder chains — the structures
 * reduction-tree extraction collapses — thus cost real pipeline
 * registers, exactly the paper's motivation in Section V-C. Returns
 * the number of nodes pipelined.
 */
int assignPipelineLatencies(Dag &dag, Int levelsPerCycle = 3);

/**
 * Verify the matching invariant: for every node, all input paths
 * from every graph source have equal static delay. Used by tests.
 */
bool delaysMatched(const Dag &dag);

} // namespace lego

#endif // LEGO_BACKEND_DELAY_MATCH_HH
