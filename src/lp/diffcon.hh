/**
 * @file
 * Weighted difference-constraint LP (the delay-matching core, paper
 * Section V-A, Eq. 10-11).
 *
 *   minimize   sum_k w_k * (D_{v_k} - D_{u_k} - l_k)
 *   subject to D_{v_k} - D_{u_k} >= l_k            for all k
 *
 * with w_k >= 0. The LP dual is an uncapacitated transshipment problem
 * solved exactly by MinCostFlow; optimal D values are recovered from
 * the node potentials (the constraint matrix is totally unimodular, so
 * the integral optimum is the true LP optimum).
 *
 * The LP usually has many optimal D. MinCostFlow's potential rule
 * picks one: Bellman-Ford start potentials, then pi[v] += min(dist[v],
 * dist[sink]) after each Dijkstra. That choice fixes where delay
 * matching places registers, so a solver change must return the same
 * potentials, not just an optimal dual. netflow.hh argues in one line
 * per shortcut why its loop keeps them; test_lp checks them against a
 * one-path-per-Dijkstra reference on random and design-scale LPs.
 *
 * Broadcast-aware re-pricing (Section V-B stage 1) is expressible in
 * the same form by adding a virtual max-node per broadcast source, so
 * one solver serves both passes.
 */

#ifndef LEGO_LP_DIFFCON_HH
#define LEGO_LP_DIFFCON_HH

#include <vector>

#include "core/types.hh"
#include "lp/netflow.hh"

namespace lego
{

/** Solver for weighted difference-constraint systems. */
class DiffConstraintLp
{
  public:
    explicit DiffConstraintLp(int num_vars);

    /** Add a variable; returns its id. */
    int addVar();

    int numVars() const { return int(numVars_); }

    /**
     * Add constraint D_v - D_u >= lower with objective weight
     * `weight` on (D_v - D_u). Returns the constraint id.
     */
    int addConstraint(int u, int v, Int lower, Int weight);

    /**
     * Solve; returns false if infeasible (a positive cycle in the
     * constraint graph, which cannot happen for DAG-derived systems).
     */
    bool solve();

    // The accessors below panic unless solve() returned true.

    /** Optimal value of D_v (anchored so the minimum D is 0). */
    Int value(int v) const;

    /** Slack of constraint k: D_v - D_u - l_k (the inserted delay). */
    Int slack(int k) const;

    /** Total weighted objective sum_k w_k * slack_k. */
    Int objective() const;

    /** The min-cost flow's work in the last solve(). */
    const FlowStats &flowStats() const { return flowStats_; }

  private:
    struct Con
    {
        int u, v;
        Int lower, weight;
    };

    size_t numVars_;
    std::vector<Con> cons_;
    std::vector<Int> d_;
    FlowStats flowStats_;
    bool solved_ = false;
};

} // namespace lego

#endif // LEGO_LP_DIFFCON_HH
