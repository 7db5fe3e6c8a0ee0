/**
 * @file
 * Back-end pass manager: runs the paper's transformation pipeline on
 * a lowered design and reports per-stage costs, which the Fig. 10 /
 * 13 / 14 benches consume directly.
 *
 * Pipeline: bit-width inference -> reduction-tree extraction ->
 * broadcast rewiring (stages 1-2) -> delay matching (stage 3) ->
 * pin reusing -> power gating -> final bit-width refresh.
 *
 * The Fig. 10 baseline is "delay matching only" (mandatory for
 * timing); every other pass can be toggled for ablations.
 */

#ifndef LEGO_BACKEND_PASSES_HH
#define LEGO_BACKEND_PASSES_HH

#include "backend/bitwidth.hh"
#include "backend/codegen.hh"
#include "backend/cost.hh"
#include "backend/delay_match.hh"
#include "backend/pin_reuse.hh"
#include "backend/power_gate.hh"
#include "backend/reduce_tree.hh"
#include "backend/rewire.hh"

namespace lego
{

/** Pass toggles. */
struct BackendOptions
{
    bool reduceTrees = true;
    bool rewireBroadcast = true;
    bool pinReuse = true;
    bool powerGating = true;
};

/** Per-stage report for the optimization-breakdown figures. */
struct BackendReport
{
    DagCost baseline;  //!< Delay matching only.
    DagCost afterReduce;
    DagCost afterRewire;
    DagCost afterPinReuse;
    DagCost final;     //!< Everything incl. power gating.

    ReduceTreeStats reduceStats;
    RewireStats rewireStats;
    PinReuseStats pinStats;
    PowerGateStats gateStats;
    DelayMatchStats matchStats;
    BitwidthStats widthStats;
    FlowStats lp; //!< Summed over the four LP solves.

    double areaSaving() const
    {
        return baseline.totalArea() / std::max(1.0, final.totalArea());
    }
    double powerSaving() const
    {
        return baseline.totalPower() /
               std::max(1.0, final.totalPower());
    }
};

/**
 * Run the full back end on a freshly lowered design. Mutates the DAG
 * in place; on return it is optimized and delay-matched.
 */
BackendReport runBackend(CodegenResult &gen,
                         const BackendOptions &opt = {});

} // namespace lego

#endif // LEGO_BACKEND_PASSES_HH
