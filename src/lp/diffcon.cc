#include "lp/diffcon.hh"

#include <algorithm>

#include "lp/netflow.hh"

namespace lego
{

DiffConstraintLp::DiffConstraintLp(int num_vars)
    : numVars_(size_t(num_vars))
{
}

int
DiffConstraintLp::addVar()
{
    return int(numVars_++);
}

int
DiffConstraintLp::addConstraint(int u, int v, Int lower, Int weight)
{
    if (u < 0 || size_t(u) >= numVars_ || v < 0 || size_t(v) >= numVars_)
        panic("DiffConstraintLp: variable out of range");
    if (weight < 0)
        panic("DiffConstraintLp: negative weight");
    cons_.push_back({u, v, lower, weight});
    return int(cons_.size()) - 1;
}

bool
DiffConstraintLp::solve()
{
    // Dual transshipment: one flow arc per constraint (u -> v) with
    // cost -lower and infinite capacity; node v must absorb net flow
    // g_v = sum_{k: v_k = v} w_k - sum_{k: u_k = v} w_k, i.e. MCF
    // supply b_v = -g_v. Primal D_v = -potential_v at optimality.
    const int n = int(numVars_);
    MinCostFlow mcf(n);
    std::vector<Int> g(size_t(n), 0);
    Int cap = 1;
    for (const Con &c : cons_) {
        g[size_t(c.v)] += c.weight;
        g[size_t(c.u)] -= c.weight;
        cap += c.weight;
    }
    for (const Con &c : cons_)
        mcf.addArc(c.u, c.v, cap, -c.lower);
    for (int v = 0; v < n; v++)
        mcf.setSupply(v, -g[size_t(v)]);
    const bool routed = mcf.solve();
    flowStats_ = mcf.stats();
    if (!routed)
        return false;

    d_.assign(size_t(n), 0);
    Int lo = 0;
    for (int v = 0; v < n; v++) {
        d_[size_t(v)] = -mcf.potential(v);
        lo = std::min(lo, d_[size_t(v)]);
    }
    // Anchor: shift so min D = 0 (pure differences are what matter).
    for (Int &x : d_)
        x -= lo;
    solved_ = true;

    // Defensive feasibility check (the dual optimality conditions
    // guarantee it; panic on violation = solver bug).
    for (const Con &c : cons_)
        if (d_[size_t(c.v)] - d_[size_t(c.u)] < c.lower)
            panic("DiffConstraintLp: infeasible solution extracted");
    return true;
}

Int
DiffConstraintLp::value(int v) const
{
    if (!solved_)
        panic("DiffConstraintLp::value before solve");
    return d_.at(size_t(v));
}

Int
DiffConstraintLp::slack(int k) const
{
    if (!solved_)
        panic("DiffConstraintLp::slack before solve");
    const Con &c = cons_.at(size_t(k));
    return d_[size_t(c.v)] - d_[size_t(c.u)] - c.lower;
}

Int
DiffConstraintLp::objective() const
{
    if (!solved_)
        panic("DiffConstraintLp::objective before solve");
    Int z = 0;
    for (size_t k = 0; k < cons_.size(); k++)
        z += cons_[k].weight * slack(int(k));
    return z;
}

} // namespace lego
