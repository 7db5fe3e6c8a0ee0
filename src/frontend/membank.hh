/**
 * @file
 * Relation-based memory analysis (paper Section IV-D, Fig. 6).
 *
 * Data-distribution switches decouple the L1 memory system from the
 * FU array, so banking only has to guarantee conflict-freedom: all
 * data nodes of a tensor must hit distinct banks at every timestamp.
 * Because the access functions are affine, the index deltas between
 * data nodes are time-invariant; examining t = 0 suffices (Eq. 8).
 * Per tensor dimension i, with deltas {|dd_i|} over data-node pairs
 * and g_i = gcd{|dd_i|}:
 *
 *     B_i = max{|dd_i|} / g_i + 1        (Eq. 9 + gcd refinement)
 *
 * Fused designs allocate max_config(prod_i B_i) physical banks and
 * view them with a per-dataflow bank shape (Fig. 6(c)).
 */

#ifndef LEGO_FRONTEND_MEMBANK_HH
#define LEGO_FRONTEND_MEMBANK_HH

#include <vector>

#include "core/dataflow.hh"
#include "core/workload.hh"

namespace lego
{

/** Bank layout of one tensor under one dataflow. */
struct TensorBanking
{
    IntVec banks; //!< B_i per tensor dimension.
    IntVec gcds;  //!< g_i per tensor dimension.

    Int numBanks() const { return product(banks); }

    /** Linear bank index of tensor element d. */
    Int bankOf(const IntVec &d) const;
};

/**
 * Analyze banking for one tensor: `dataNodes` are the FU linear
 * indexes that access memory for this tensor under `map`.
 */
TensorBanking
analyzeBanking(const Workload &w, int tensor, const DataflowMapping &map,
               const std::vector<int> &dataNodes);

/** Fused banking across configs for one operand port. */
struct FusedBanking
{
    /** Physical bank count = max over configs of numBanks(). */
    Int physicalBanks = 1;
    /** Per config (aligned with the config list). */
    std::vector<TensorBanking> perConfig;
};

/**
 * Verify Eq. 8 exhaustively for a (small) mapping: no two data nodes
 * may hit the same bank at any timestamp. Used by tests.
 */
bool
bankingConflictFree(const Workload &w, int tensor,
                    const DataflowMapping &map,
                    const std::vector<int> &dataNodes,
                    const TensorBanking &banking);

} // namespace lego

#endif // LEGO_FRONTEND_MEMBANK_HH
