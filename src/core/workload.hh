/**
 * @file
 * Workload representation (Section III-A of the paper).
 *
 * A tensor workload is a perfect loop nest over an I-dimensional
 * computation iteration domain; every tensor operand is addressed by
 * an affine data mapping d = M_{I->D} * i + b (Definition 1). The loop
 * body is one of a small set of FU computation kinds (user-extensible
 * in principle; the kinds below cover the paper's evaluation).
 */

#ifndef LEGO_CORE_WORKLOAD_HH
#define LEGO_CORE_WORKLOAD_HH

#include <string>
#include <vector>

#include "core/matrix.hh"
#include "core/tensor.hh"

namespace lego
{

/**
 * Affine data mapping d = m * i + bias (paper Definition 1).
 * m is (tensor rank) x (iteration dims).
 */
struct DataMapping
{
    IntMat m;
    IntVec bias;

    IntVec apply(const IntVec &iter) const;
};

/**
 * The computation executed by one functional unit per iteration
 * point. Inputs are the non-output tensors in declaration order.
 */
enum class OpKind
{
    Mac,         //!< y += x0 * x1 (GEMM, Conv2D).
    MulMulAdd,   //!< y += x0 * x1 * x2 (MTTKRP).
    MulShiftAdd, //!< y += (x0 * x1) << x2 (BitFusion-style FU).
    MaxReduce,   //!< y = max(y, x0) (pooling).
};

/** Number of input operands an OpKind consumes. */
int opInputCount(OpKind op);

/** Human-readable FU kind name (used in reports and Verilog). */
std::string opKindName(OpKind op);

/**
 * A tensor workload: iteration domain, tensor operands, affine data
 * mappings, and the loop-body computation.
 */
struct Workload
{
    std::string name;

    /** Names of computation iteration dims, e.g. {"i","j","k"}. */
    std::vector<std::string> iterDims;
    /** Extents of the iteration dims (the untiled problem size). */
    IntVec iterSizes;

    std::vector<TensorDecl> tensors;
    std::vector<DataMapping> mappings; //!< Parallel to `tensors`.

    OpKind op = OpKind::Mac;

    /** Index of a tensor by name; fatal() if unknown. */
    int tensorIndex(const std::string &name) const;

    /** Index of the (single) output tensor. */
    int outputTensor() const;

    /** Indexes of the input tensors in operand order. */
    std::vector<int> inputTensors() const;

    /**
     * Shape of a tensor implied by the iteration domain and its data
     * mapping (componentwise max over the domain corners, plus one).
     */
    IntVec tensorShape(int tensor_idx) const;

    /** Total number of iteration points. */
    Int iterationCount() const { return product(iterSizes); }

    /** Multiply-accumulate (or equivalent) operations, 2 per MAC. */
    Int totalOps() const;

    /** Validate shapes/mappings; fatal() on inconsistency. */
    void validate() const;
};

/**
 * @name Workload builders for the paper's four evaluation kernels.
 * @{
 */

/** GEMM: Y[i,j] += X[i,k] * W[k,j]. */
Workload makeGemm(Int i, Int j, Int k);

/**
 * Conv2D: Y[n,oc,oh,ow] += X[n,ic,oh+kh,ow+kw] * W[oc,ic,kh,kw]
 * (stride 1, pre-padded input).
 */
Workload makeConv2d(Int n, Int ic, Int oc, Int oh, Int ow, Int kh, Int kw);

/** Depthwise Conv2D: Y[n,c,oh,ow] += X[n,c,oh+kh,ow+kw] * W[c,kh,kw]. */
Workload makeDepthwiseConv2d(Int n, Int c, Int oh, Int ow, Int kh, Int kw);

/** MTTKRP: Y[i,j] += T[i,k,l] * B[k,j] * C[l,j]. */
Workload makeMttkrp(Int i, Int j, Int k, Int l);

/** Attention score: S[i,j] += Q[i,k] * K[j,k] (Q K^T). */
Workload makeAttentionScore(Int seq, Int dk);

/** Attention context: O[i,k] += A[i,j] * V[j,k] (A V). */
Workload makeAttentionContext(Int seq, Int dv);

/** Mixed-precision GEMM with BitFusion-style FU (mult-shift-add). */
Workload makeBitFusionGemm(Int i, Int j, Int k);

/** @} */

} // namespace lego

#endif // LEGO_CORE_WORKLOAD_HH
