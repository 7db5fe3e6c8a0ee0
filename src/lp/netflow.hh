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
 * potentials. Each phase then runs one Dijkstra on reduced costs and
 * raises every potential by min(dist[v], dist[dst]); after it, the
 * arcs with residual capacity and reduced cost 0 (the admissible
 * arcs) hold every shortest path to the super sink. Dinic blocking
 * flows (BFS levels, DFS with per-node current-arc pointers) then
 * saturate the admissible arcs until the sink is cut off from the
 * source, and only then does the next Dijkstra run. Potentials change
 * only in Dijkstra, so this returns the potentials that pushing one
 * shortest path per Dijkstra would return, in one Dijkstra per
 * distance level.
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
    void addSupply(int node, Int delta);

    /**
     * Solve. Returns false when the supplies cannot be routed.
     * Requires that no negative-cost directed cycle exists (true for
     * LEGO's DAG-derived instances). Panics when called twice.
     */
    bool solve();

    Int totalCost() const { return totalCost_; }
    Int flowOn(int arc_id) const;

    /**
     * Node potential at optimality: for every arc with residual
     * capacity, cost + pi[u] - pi[v] >= 0.
     */
    Int potential(int v) const { return pi_[size_t(v)]; }

  private:
    struct Edge
    {
        int to;
        Int cap;
        Int cost;
        int rev; //!< Index of the reverse edge in graph_[to].
    };

    void addInternal(int u, int v, Int cap, Int cost);
    bool bellmanFordInit(int src);
    bool dijkstra(int src, int dst);
    bool admissible(int u, const Edge &e) const;
    bool levelGraph(int src, int dst);
    Int blockingFlow(int src, int dst);

    int n_;
    std::vector<std::vector<Edge>> graph_;
    std::vector<std::pair<int, int>> arcRef_; //!< arc id -> (node, idx).
    std::vector<Int> supply_;
    std::vector<Int> pi_;
    Int totalCost_ = 0;
    bool solved_ = false;

    // Blocking-flow scratch, reused across phases.
    std::vector<int> level_;  //!< BFS level over admissible arcs.
    std::vector<size_t> arc_; //!< DFS current-arc pointer per node.
    std::vector<int> queue_;  //!< BFS queue.
    std::vector<int> path_;   //!< DFS path: tail node of each arc.
};

} // namespace lego

#endif // LEGO_LP_NETFLOW_HH
