/**
 * @file
 * Exact min-cost flow (primal-dual: shortest paths with potentials
 * plus blocking flows).
 *
 * The delay-matching LP of Section V-A is a difference-constraint LP;
 * its dual is an uncapacitated transshipment problem, solved here as a
 * min-cost flow. Optimal node potentials then yield the primal D
 * variables (see diffcon.hh). Costs/capacities/supplies are integral,
 * so the optimum is integral — the paper's register counts.
 *
 * The solver loop: Bellman-Ford from all nodes gives feasible start
 * potentials. Each phase runs one Dijkstra on reduced costs, raises
 * every potential by min(dist[v], dist[dst]) and lists each node's
 * arc slots of reduced cost 0. Dinic blocking flows (BFS levels, DFS
 * with per-node current-arc pointers) then saturate the admissible
 * arcs until the sink is cut off from the source, and only then does
 * the next Dijkstra run. Potentials change only in Dijkstra, so this
 * returns the potentials that pushing one shortest path per Dijkstra
 * would return, in one Dijkstra per distance level. Each shortcut
 * below is exact, so phases, level rounds and augmenting paths follow
 * the plain loop's trajectory one for one:
 *
 *  - Dijkstra stops once it pops the sink: every unsettled node's
 *    tentative distance is then >= dist[dst], so the capped update
 *    reads the same value.
 *  - Its queue is a radix heap: reduced costs are non-negative
 *    integers, distances do not depend on pop order, and memory stays
 *    O(n) for any cost range.
 *  - The level BFS stops once it labels the sink: deeper nodes cannot
 *    lie on a level-increasing path to it, so the DFS dead-ends on
 *    them either way.
 *  - BFS and DFS walk only the reduced-cost-0 slots, in slot order:
 *    within a phase an arc is admissible exactly when its reduced
 *    cost is 0 and its capacity is > 0, and potentials do not move.
 *  - The residual graph is CSR, filled in arc-insertion order, so
 *    each node's slots keep the order adjacency lists would have.
 *
 * The LP has many optimal duals. This potential rule (Bellman-Ford
 * start, capped update) decides which one is returned, and so where
 * delay matching and rewireBroadcasts place registers. A later solver
 * change must keep it: scaling methods, network simplex or a warm
 * start each return a different optimum and change the Verilog.
 */

#ifndef LEGO_LP_NETFLOW_HH
#define LEGO_LP_NETFLOW_HH

#include <vector>

#include "core/types.hh"

namespace lego
{

/** Work one MinCostFlow::solve did; sums over several solves. */
struct FlowStats
{
    Int phases = 0;  //!< Dijkstra runs.
    Int rounds = 0;  //!< Level-graph BFS runs.
    Int paths = 0;   //!< Augmenting paths pushed.
    Int settled = 0; //!< Nodes Dijkstra popped.
    Int scanned = 0; //!< Arc slots the level-graph BFS examined.

    FlowStats &
    operator+=(const FlowStats &o)
    {
        phases += o.phases;
        rounds += o.rounds;
        paths += o.paths;
        settled += o.settled;
        scanned += o.scanned;
        return *this;
    }
};

/** Min-cost flow on a directed graph with node supplies. */
class MinCostFlow
{
  public:
    explicit MinCostFlow(int num_nodes);

    /**
     * Add an arc u -> v with capacity and per-unit cost. Returns the
     * arc id for later flow queries.
     */
    int addArc(int u, int v, Int cap, Int cost);

    /** Positive = source (must ship out), negative = sink. */
    void setSupply(int node, Int supply);

    /**
     * Solve. Returns false when the supplies cannot be routed.
     * Requires that no negative-cost directed cycle exists (true for
     * LEGO's DAG-derived instances). Panics when called twice.
     */
    bool solve();

    Int totalCost() const { return totalCost_; }

    /** Flow on an arc; valid after solve(). */
    Int flowOn(int arc_id) const;

    /**
     * Node potential at optimality: for every arc with residual
     * capacity, cost + pi[u] - pi[v] >= 0.
     */
    Int potential(int v) const { return pi_[size_t(v)]; }

    /** What solve() did; the same counts for the same instance. */
    const FlowStats &stats() const { return stats_; }

  private:
    struct Arc
    {
        int u, v;
        Int cap, cost;
    };

    void buildGraph();
    bool bellmanFordInit();
    bool dijkstra(int src, int dst);
    void listZeroSlots();
    bool levelGraph(int src, int dst);
    Int blockingFlow(int src, int dst);

    int n_;
    std::vector<Arc> arcs_; //!< In insertion order; super arcs last.
    std::vector<Int> supply_;
    std::vector<Int> pi_;
    Int totalCost_ = 0;
    bool solved_ = false;
    FlowStats stats_;

    // Residual graph in CSR: node u's slots are [start_[u],
    // start_[u + 1]); slot rev_[s] is slot s's reverse.
    std::vector<int> start_;
    std::vector<int> to_;
    std::vector<int> rev_;
    std::vector<Int> cap_;
    std::vector<Int> cost_;
    std::vector<int> fwd_; //!< arc id -> forward slot.

    // Phase scratch, reused across phases.
    std::vector<Int> dist_;
    std::vector<int> zeroStart_; //!< Per node, into zero_ (n + 1).
    std::vector<int> zero_;      //!< Reduced-cost-0 slots by node.

    // Blocking-flow scratch, reused across rounds.
    std::vector<int> level_; //!< BFS level; -1 unless in queue_.
    std::vector<int> arc_;   //!< DFS current-arc pointer into zero_.
    std::vector<int> queue_; //!< BFS queue: this round's labelled nodes.
    std::vector<int> path_;  //!< DFS path: tail node of each arc.
};

} // namespace lego

#endif // LEGO_LP_NETFLOW_HH
