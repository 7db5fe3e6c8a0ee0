#include "backend/passes.hh"

namespace lego
{

BackendReport
runBackend(CodegenResult &gen, const BackendOptions &opt)
{
    BackendReport rep;
    Dag &dag = gen.dag;

    // Realistic widths before any LP (weights are bit-widths).
    rep.widthStats = inferBitwidths(dag);

    // Baseline: logic-depth pipelining + delay matching only (both
    // mandatory for timing closure).
    {
        Dag base = dag;
        assignPipelineLatencies(base);
        rep.lp += runDelayMatching(base).lp;
        rep.baseline = dagCost(base);
    }

    if (opt.reduceTrees)
        rep.reduceStats = extractReductionTrees(dag);
    assignPipelineLatencies(dag);
    {
        Dag t = dag;
        rep.lp += runDelayMatching(t).lp;
        rep.afterReduce = dagCost(t);
    }

    if (opt.rewireBroadcast)
        rep.rewireStats = rewireBroadcasts(dag);
    assignPipelineLatencies(dag); // Cover rewiring-inserted taps.
    rep.matchStats = runDelayMatching(dag); // Stage 3 / final.
    rep.lp += rep.rewireStats.lp;
    rep.lp += rep.matchStats.lp;
    rep.afterRewire = dagCost(dag);

    if (opt.pinReuse)
        rep.pinStats = reusePins(dag);
    rep.afterPinReuse = dagCost(dag);

    if (opt.powerGating)
        rep.gateStats = applyPowerGating(dag);

    inferBitwidths(dag); // Refresh widths over pass-created nodes.
    rep.final = dagCost(dag);

    dag.validate();
    return rep;
}

} // namespace lego
