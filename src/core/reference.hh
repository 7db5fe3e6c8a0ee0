/**
 * @file
 * Golden reference executor: runs a workload's loop nest directly on
 * dense tensors. Generated hardware (via the cycle-accurate DAG
 * interpreter) must produce bit-identical outputs; this plays the role
 * of the paper's RTL-simulation cross-check.
 */

#ifndef LEGO_CORE_REFERENCE_HH
#define LEGO_CORE_REFERENCE_HH

#include <vector>

#include "core/dataflow.hh"
#include "core/workload.hh"

namespace lego
{

/** Tensor storage aligned with Workload::tensors. */
struct TensorSet
{
    std::vector<TensorData> tensors;

    TensorData &operator[](int i) { return tensors[size_t(i)]; }
    const TensorData &operator[](int i) const { return tensors[size_t(i)]; }
};

/**
 * Allocate all tensors for a workload; inputs filled with a
 * deterministic pattern derived from `seed`, output zeroed.
 */
TensorSet makeInputs(const Workload &w, unsigned seed);

/** Apply the loop body once at computation iteration point `iter`. */
void applyBody(const Workload &w, TensorSet &ts, const IntVec &iter);

/**
 * Execute the full loop nest in canonical (row-major) order. Each
 * tensor's affine mapping is folded into flat row-major offsets, and
 * every index it can produce over the iteration box is proved inside
 * the tensor once per call, before any point runs; panics otherwise.
 */
void runReference(const Workload &w, TensorSet &ts);

/**
 * Execute via the dataflow mapping (for t, parfor s), asserting the
 * mapping visits each iteration point exactly once. Used by tests to
 * show the dataflow mapping is a bijection onto the iteration domain.
 */
void runMapped(const Workload &w, const DataflowMapping &m, TensorSet &ts);

/** True iff the dataflow mapping is a bijection onto the domain. */
bool mappingIsBijective(const Workload &w, const DataflowMapping &m);

} // namespace lego

#endif // LEGO_CORE_REFERENCE_HH
