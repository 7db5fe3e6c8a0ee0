/**
 * @file
 * Relation-based interconnection analysis (paper Section IV-A).
 *
 * For every tensor and every spatial offset ds inside the window
 * ||ds||_inf <= d_S, LEGO checks whether two FUs separated by ds ever
 * access the same tensor element:
 *
 *  - Direct (Eq. 6):  M_{I->D} M_{S->I} ds = 0 with dt_bias >= 0.
 *    Both FUs use the element at the same *local* timestamp; the
 *    physical delay equals the control-skew dt_bias = ds . c.
 *
 *  - Delay (Eq. 7):   M_{I->D} (M_{T->I} dt + M_{S->I} ds) = 0 with
 *    dt_bias >= 0 and minimal positive scalar delay. The receiving FU
 *    uses the element scalar(dt) local cycles later; a programmable
 *    FIFO of depth scalar(dt) + dt_bias implements the connection.
 */

#ifndef LEGO_FRONTEND_INTERCONNECT_HH
#define LEGO_FRONTEND_INTERCONNECT_HH

#include <vector>

#include "core/dataflow.hh"
#include "core/workload.hh"

namespace lego
{

/** Connection type between two FUs. */
enum class ConnKind { Direct, Delay };

/** One data-reuse solution of Eq. 6 or Eq. 7. */
struct ReuseSolution
{
    int tensor;       //!< Tensor index within the workload.
    ConnKind kind;
    IntVec ds;        //!< Spatial offset (data flows s -> s + ds).
    IntVec dt;        //!< Temporal offset (all zero for Direct).
    Int scalarDelay;  //!< Mixed-radix scalar of dt (0 for Direct).
    Int tbiasDelta;   //!< ds . c — control-skew between the FUs.

    /** Physical FIFO/register depth in global clock cycles. */
    Int totalDelay() const { return scalarDelay + tbiasDelta; }
};

/** Options bounding the reuse search. */
struct ReuseSearchOptions
{
    Int spatialWindow = 1;  //!< d_S in Eq. 6/7.
    Int latticeBound = 3;   //!< Free-variable search width (Eq. 7).
    /** Ignore delay solutions deeper than this many cycles. */
    Int maxDelay = 4096;
};

/**
 * Find every direct and (minimal-delay) delay interconnection
 * solution for one tensor under the given dataflow mapping.
 */
std::vector<ReuseSolution>
findReuseSolutions(const Workload &w, int tensor,
                   const DataflowMapping &map,
                   const ReuseSearchOptions &opt = {});

} // namespace lego

#endif // LEGO_FRONTEND_INTERCONNECT_HH
