#include "backend/rewire.hh"

#include <algorithm>
#include <numeric>

#include "lp/diffcon.hh"

namespace lego
{

namespace
{

/** Are two FUs spatially adjacent (or co-located / unplaced)? */
bool
adjacentFus(int a, int b)
{
    // FU ids are linear; without the array shape the conservative
    // adjacency test is id distance. Co-located and unplaced nodes
    // are always chainable.
    if (a < 0 || b < 0 || a == b)
        return true;
    return std::abs(a - b) <= 1;
}

} // namespace

RewireStats
rewireBroadcasts(Dag &dag)
{
    RewireStats stats;
    const int nc = dag.numConfigs();

    // ---- stage 1: broadcast-aware LP ---------------------------------
    // One variable per node plus a virtual max-node per broadcast
    // star; star edges get weight 0, the star pays width * max.
    DiffConstraintLp lp(dag.numNodes());
    std::vector<int> conOf(size_t(dag.numEdges()), -1);
    struct Star
    {
        int src;
        std::vector<int> edges;
    };
    std::vector<Star> stars;
    for (int v = 0; v < dag.numNodes(); v++) {
        if (dag.node(v).dead || dag.node(v).op == PrimOp::Const)
            continue;
        std::vector<int> outs;
        for (int e : dag.outEdges(v))
            if (!dag.edge(e).dead)
                outs.push_back(e);
        if (outs.size() >= 2)
            stars.push_back({v, outs});
    }
    std::vector<bool> inStar(size_t(dag.numEdges()), false);
    for (const Star &s : stars)
        for (int e : s.edges)
            inStar[size_t(e)] = true;

    for (int e = 0; e < dag.numEdges(); e++) {
        const DagEdge &edge = dag.edge(e);
        if (edge.dead || dag.node(edge.from).op == PrimOp::Const)
            continue;
        Int lv = dag.node(edge.to).latency;
        Int weight = inStar[size_t(e)] ? 0 : edge.width;
        conOf[size_t(e)] =
            lp.addConstraint(edge.from, edge.to, lv, weight);
    }
    for (const Star &s : stars) {
        int m = lp.addVar();
        // M >= D_u - L_u for every destination; M - D_s >= 0; the
        // objective pays width once on (M - D_s).
        Int width = 0;
        for (int e : s.edges) {
            const DagEdge &edge = dag.edge(e);
            lp.addConstraint(edge.to, m,
                             -dag.node(edge.to).latency, 0);
            width = std::max(width, Int(edge.width));
        }
        lp.addConstraint(s.src, m, 0, width);
    }
    if (!lp.solve())
        panic("rewireBroadcasts: stage-1 LP infeasible");
    stats.lp = lp.flowStats();

    // ---- stage 2: chain construction per star -------------------------
    for (const Star &s : stars) {
        // Needed delay per destination: static EL (from the stage-1
        // solution) plus per-config programmed delay.
        struct Dest
        {
            int edge;
            Int el;               //!< Static need (stage-1 solution).
            std::vector<Int> prog; //!< Per-config programmed delay.
            std::vector<Int> cfg;  //!< Total = el + prog (ordering).
        };
        std::vector<Dest> dests;
        bool any_delay = false;
        for (int e : s.edges) {
            const DagEdge &edge = dag.edge(e);
            Dest d;
            d.edge = e;
            d.el = lp.value(edge.to) - lp.value(s.src) -
                   dag.node(edge.to).latency;
            d.prog.assign(size_t(nc), 0);
            if (!edge.cfgDelay.empty())
                d.prog = edge.cfgDelay;
            d.cfg.assign(size_t(nc), d.el);
            for (int c = 0; c < nc; c++)
                d.cfg[size_t(c)] += d.prog[size_t(c)];
            for (Int x : d.cfg)
                if (x > 0)
                    any_delay = true;
            dests.push_back(std::move(d));
        }
        if (!any_delay || dests.size() < 2)
            continue;

        // Order by total needed delay (sum across configs), then
        // chain greedily while the per-config deltas stay monotone
        // and hops remain spatially adjacent.
        std::vector<int> order(dests.size());
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
            Int sa = 0, sb = 0;
            for (int c = 0; c < nc; c++) {
                sa += dests[size_t(a)].cfg[size_t(c)];
                sb += dests[size_t(b)].cfg[size_t(c)];
            }
            return sa < sb;
        });

        // Chain: source -> tap_1 (full delay of the first dest) ->
        // tap_2 (delta) -> ... Each chained destination reads its
        // tap with zero extra delay. Non-monotone or non-adjacent
        // destinations stay directly attached.
        int prev_tap = -1;
        int prev_fu = dag.node(s.src).fu;
        std::vector<Int> prev_prog(size_t(nc), 0);
        Int prev_el = 0;
        Int star_cost = 0, chain_cost = 0;
        int chained = 0;
        for (int oi : order) {
            Dest &d = dests[size_t(oi)];
            DagEdge &edge = dag.edge(d.edge);
            for (int c = 0; c < nc; c++)
                star_cost += d.cfg[size_t(c)];
            // Forwarding hops must be monotone in both the static
            // and the per-config programmed delay, and adjacent.
            bool chain_ok = d.el >= prev_el;
            for (int c = 0; c < nc; c++)
                if (d.prog[size_t(c)] < prev_prog[size_t(c)])
                    chain_ok = false;
            chain_ok = chain_ok &&
                       adjacentFus(dag.node(edge.to).fu, prev_fu);
            if (!chain_ok)
                continue;

            DagNode tapn;
            tapn.op = PrimOp::Tap;
            tapn.name = dag.node(s.src).name + "_fwd" +
                        std::to_string(stats.tapsInserted);
            tapn.fu = dag.node(edge.to).fu;
            tapn.width = edge.width;
            int tid = dag.addNode(std::move(tapn));
            stats.tapsInserted++;

            // Programmed delay: per-config delta. The static part is
            // re-inserted by the stage-3 delay matching, which now
            // shares registers along the chain automatically.
            DagEdge te;
            te.from = prev_tap >= 0 ? prev_tap : s.src;
            te.to = tid;
            te.toPin = 0;
            te.width = edge.width;
            te.cfgDelay.assign(size_t(nc), 0);
            for (int c = 0; c < nc; c++) {
                te.cfgDelay[size_t(c)] =
                    d.prog[size_t(c)] - prev_prog[size_t(c)];
                chain_cost +=
                    te.cfgDelay[size_t(c)] + (d.el - prev_el);
            }
            // addEdge can reallocate the edge list: `edge` dangles
            // from here on, so the destination edge is re-fetched.
            dag.addEdge(std::move(te));

            // The destination now reads its tap with no extra delay.
            dag.retargetEdgeSource(d.edge, tid);
            DagEdge &dest = dag.edge(d.edge);
            if (!dest.cfgDelay.empty())
                dest.cfgDelay.assign(size_t(nc), 0);

            prev_tap = tid;
            prev_fu = dag.node(dest.to).fu;
            prev_prog = d.prog;
            prev_el = d.el;
            chained++;
        }
        if (chained > 1) {
            stats.starsRewired++;
            stats.regBitsSavedEstimate +=
                std::max<Int>(0, star_cost - chain_cost) *
                dag.edge(s.edges[0]).width;
        }
    }
    return stats;
}

} // namespace lego
