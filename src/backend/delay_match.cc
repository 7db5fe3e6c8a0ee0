#include "backend/delay_match.hh"

#include <limits>

#include "lp/diffcon.hh"

namespace lego
{

DelayMatchStats
runDelayMatching(Dag &dag)
{
    DiffConstraintLp lp(dag.numNodes());
    std::vector<int> conOf(size_t(dag.numEdges()), -1);
    for (int e = 0; e < dag.numEdges(); e++) {
        const DagEdge &edge = dag.edge(e);
        if (edge.dead)
            continue;
        // Constants are timing-free: their value is valid at every
        // cycle, so no alignment registers are ever needed.
        if (dag.node(edge.from).op == PrimOp::Const)
            continue;
        Int lv = dag.node(edge.to).latency;
        conOf[size_t(e)] =
            lp.addConstraint(edge.from, edge.to, lv, edge.width);
    }
    if (!lp.solve())
        panic("runDelayMatching: infeasible constraint system");

    DelayMatchStats stats;
    stats.lp = lp.flowStats();
    for (int e = 0; e < dag.numEdges(); e++) {
        if (conOf[size_t(e)] < 0) {
            dag.edge(e).regs = 0;
            continue;
        }
        Int el = lp.slack(conOf[size_t(e)]);
        dag.edge(e).regs = el;
        stats.insertedRegs += el;
        stats.insertedRegBits += el * dag.edge(e).width;
    }
    return stats;
}

namespace
{

/** Combinational levels contributed by a primitive. */
Int
logicLevels(const DagNode &n)
{
    switch (n.op) {
      case PrimOp::Add:
      case PrimOp::Max:
      case PrimOp::Shl:
      case PrimOp::Valid:
      case PrimOp::Mux:
        return 1;
      case PrimOp::AddrGen:
        return 2; // Constant-multiply adder cluster.
      case PrimOp::Reduce: {
        Int lv = 1, pins = std::max(2, n.reducePins);
        while ((1 << lv) < pins)
            lv++;
        return lv; // Balanced tree depth.
      }
      default:
        return 0;
    }
}

} // namespace

int
assignPipelineLatencies(Dag &dag, Int levelsPerCycle)
{
    int pipelined = 0;
    bool changed = true;
    // Iterate to a fixpoint: registering a node shortens downstream
    // paths, which may unregister nothing (latencies only grow), so
    // a couple of sweeps suffice.
    while (changed) {
        changed = false;
        for (int c = 0; c < dag.numConfigs(); c++) {
            std::vector<Int> depth(size_t(dag.numNodes()), 0);
            for (int v : dag.topoOrder(c)) {
                DagNode &n = dag.node(v);
                if (n.dead)
                    continue;
                Int in_depth = 0;
                for (int e : dag.inEdges(v)) {
                    const DagEdge &edge = dag.edge(e);
                    if (edge.dead || !edge.activeFor(c))
                        continue;
                    if (dag.node(edge.from).op == PrimOp::Const)
                        continue;
                    // FIFO-bearing edges register the signal.
                    if (edge.delayFor(c) > 0)
                        continue;
                    in_depth = std::max(in_depth,
                                        depth[size_t(edge.from)]);
                }
                if (n.latency >= 1) {
                    depth[size_t(v)] = 0;
                    continue;
                }
                Int total = in_depth + logicLevels(n);
                if (total > levelsPerCycle) {
                    n.latency = 1; // Pipeline the node's output.
                    depth[size_t(v)] = 0;
                    pipelined++;
                    changed = true;
                } else {
                    depth[size_t(v)] = total;
                }
            }
        }
    }
    return pipelined;
}

bool
delaysMatched(const Dag &dag)
{
    // D_v = D_u + regs + L_v must admit a consistent assignment with
    // *equality* on every edge. Propagate in topological order per
    // config and check reconvergent paths agree.
    for (int c = 0; c < dag.numConfigs(); c++) {
        std::vector<Int> d(size_t(dag.numNodes()),
                           std::numeric_limits<Int>::min());
        for (int v : dag.topoOrder(c)) {
            for (int e : dag.inEdges(v)) {
                const DagEdge &edge = dag.edge(e);
                if (edge.dead || !edge.activeFor(c))
                    continue;
                if (dag.node(edge.from).op == PrimOp::Const)
                    continue; // Constants are timing-free.
                Int arrive = d[size_t(edge.from)];
                if (arrive == std::numeric_limits<Int>::min())
                    arrive = 0;
                Int dv = arrive + edge.regs + dag.node(v).latency;
                if (d[size_t(v)] == std::numeric_limits<Int>::min())
                    d[size_t(v)] = dv;
                else if (d[size_t(v)] != dv)
                    return false;
            }
            if (d[size_t(v)] == std::numeric_limits<Int>::min())
                d[size_t(v)] = 0;
        }
    }
    return true;
}

} // namespace lego
