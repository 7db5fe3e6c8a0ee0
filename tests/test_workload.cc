/**
 * @file
 * Unit tests for workloads, dataflow mappings, and the reference
 * executor, including the paper's Fig. 3 / Fig. 4 setups.
 */

#include <gtest/gtest.h>

#include "core/dataflow.hh"
#include "core/reference.hh"
#include "core/workload.hh"

namespace lego
{
namespace
{

TEST(Workload, GemmShapes)
{
    Workload w = makeGemm(4, 6, 8);
    EXPECT_EQ(w.tensorShape(w.tensorIndex("X")), (IntVec{4, 8}));
    EXPECT_EQ(w.tensorShape(w.tensorIndex("W")), (IntVec{8, 6}));
    EXPECT_EQ(w.tensorShape(w.tensorIndex("Y")), (IntVec{4, 6}));
    EXPECT_EQ(w.iterationCount(), 4 * 6 * 8);
    EXPECT_EQ(w.totalOps(), 2 * 4 * 6 * 8);
    EXPECT_EQ(w.outputTensor(), w.tensorIndex("Y"));
}

TEST(Workload, ConvShapes)
{
    Workload w = makeConv2d(1, 3, 8, 5, 5, 3, 3);
    // ih = oh + kh in [0, 5+3-2] -> extent 7.
    EXPECT_EQ(w.tensorShape(w.tensorIndex("X")), (IntVec{1, 3, 7, 7}));
    EXPECT_EQ(w.tensorShape(w.tensorIndex("W")), (IntVec{8, 3, 3, 3}));
    EXPECT_EQ(w.tensorShape(w.tensorIndex("Y")), (IntVec{1, 8, 5, 5}));
}

TEST(Workload, MttkrpHasThreeInputs)
{
    Workload w = makeMttkrp(4, 5, 6, 7);
    EXPECT_EQ(w.inputTensors().size(), 3u);
    EXPECT_EQ(w.op, OpKind::MulMulAdd);
}

TEST(Workload, ReferenceGemmMatchesManual)
{
    Workload w = makeGemm(3, 4, 5);
    TensorSet ts = makeInputs(w, 42);
    runReference(w, ts);
    const auto &x = ts[w.tensorIndex("X")];
    const auto &wt = ts[w.tensorIndex("W")];
    const auto &y = ts[w.tensorIndex("Y")];
    for (Int i = 0; i < 3; i++) {
        for (Int j = 0; j < 4; j++) {
            Int acc = 0;
            for (Int k = 0; k < 5; k++)
                acc += x.at({i, k}) * wt.at({k, j});
            EXPECT_EQ(y.at({i, j}), acc);
        }
    }
}

/** Build the paper's Fig. 3 GEMM dataflow (parallel k, j; systolic). */
DataflowMapping
fig3Mapping(const Workload &w, Int r1i, Int r0j, Int r0k, Int r0i,
            Int pk, Int pj)
{
    DataflowSpec spec;
    spec.name = "gemm_kj_systolic";
    spec.temporal = {{"i", r1i}, {"j", r0j}, {"k", r0k}, {"i", r0i}};
    spec.spatial = {{"k", pk}, {"j", pj}};
    spec.cflow = {1, 1};
    return buildDataflow(w, spec);
}

TEST(Dataflow, Fig3GemmMapping)
{
    Workload w = makeGemm(10, 6, 8); // i=10=2*5, j=6=3*2, k=8=4*2.
    DataflowMapping m = fig3Mapping(w, 2, 3, 4, 5, 2, 2);

    // The purple matrix of Fig. 3(b):
    // i = R0_i * t1_i + t0_i; j = P_j * t0_j + s_j; k = P_k * t0_k + s_k.
    IntMat expect_ti = {{5, 0, 0, 1},
                        {0, 2, 0, 0},
                        {0, 0, 2, 0}};
    IntMat expect_si = {{0, 0}, {0, 1}, {1, 0}};
    EXPECT_EQ(m.mTI, expect_ti);
    EXPECT_EQ(m.mSI, expect_si);
    EXPECT_EQ(m.rT, (IntVec{2, 3, 4, 5}));
    EXPECT_EQ(m.rS, (IntVec{2, 2}));
    EXPECT_TRUE(mappingIsBijective(w, m));

    // t_bias = s . c (Eq. 4).
    EXPECT_EQ(m.tbias({0, 0}), 0);
    EXPECT_EQ(m.tbias({1, 1}), 2);
}

TEST(Dataflow, Fig4ConvMapping)
{
    // Conv2D parallelizing oh and ow (ShiDianNao), c = (0,0).
    Workload w = makeConv2d(1, 2, 2, 4, 4, 3, 3);
    DataflowSpec spec;
    spec.name = "conv_ohow";
    spec.temporal = {{"n", 1}, {"oc", 2}, {"ic", 2}, {"oh", 2},
                     {"ow", 2}, {"kh", 3}, {"kw", 3}};
    spec.spatial = {{"ow", 2}, {"oh", 2}};
    spec.cflow = {0, 0};
    DataflowMapping m = buildDataflow(w, spec);
    EXPECT_TRUE(mappingIsBijective(w, m));
    EXPECT_EQ(m.numFUs(), 4);
    EXPECT_EQ(m.tbias({1, 1}), 0);
}

TEST(Dataflow, MappedExecutionMatchesReference)
{
    Workload w = makeGemm(10, 6, 8);
    DataflowMapping m = fig3Mapping(w, 2, 3, 4, 5, 2, 2);

    TensorSet a = makeInputs(w, 7);
    TensorSet b = makeInputs(w, 7);
    runReference(w, a);
    runMapped(w, m, b);
    EXPECT_EQ(a[w.outputTensor()], b[w.outputTensor()]);
}

TEST(Dataflow, SimpleSpecDefaults)
{
    Workload w = makeGemm(8, 8, 8);
    DataflowSpec spec =
        makeSimpleSpec(w, "gemm_ij", {{"i", 4}, {"j", 4}}, false);
    DataflowMapping m = buildDataflow(w, spec);
    EXPECT_TRUE(mappingIsBijective(w, m));
    EXPECT_EQ(m.numFUs(), 16);
    EXPECT_EQ(m.cflow, (IntVec{0, 0}));
}

TEST(Dataflow, BadFactorizationFails)
{
    Workload w = makeGemm(8, 8, 8);
    EXPECT_THROW(
        makeSimpleSpec(w, "bad", {{"i", 3}}, false), FatalError);
    DataflowSpec spec;
    spec.name = "bad2";
    spec.temporal = {{"i", 8}, {"j", 8}, {"k", 3}};
    spec.spatial = {};
    spec.cflow = {};
    EXPECT_THROW(buildDataflow(w, spec), FatalError);
}

TEST(Dataflow, AttentionPairShapesAgree)
{
    Workload score = makeAttentionScore(8, 4);
    Workload ctx = makeAttentionContext(8, 4);
    // Score output S[i,j] has the same shape as context input A[i,j].
    EXPECT_EQ(score.tensorShape(score.tensorIndex("S")),
              ctx.tensorShape(ctx.tensorIndex("A")));
}

TEST(Reference, DepthwiseConv)
{
    Workload w = makeDepthwiseConv2d(1, 3, 4, 4, 3, 3);
    TensorSet ts = makeInputs(w, 3);
    runReference(w, ts);
    const auto &x = ts[w.tensorIndex("X")];
    const auto &wt = ts[w.tensorIndex("W")];
    const auto &y = ts[w.tensorIndex("Y")];
    Int acc = 0;
    for (Int kh = 0; kh < 3; kh++)
        for (Int kw = 0; kw < 3; kw++)
            acc += x.at({0, 1, 2 + kh, 1 + kw}) * wt.at({1, kh, kw});
    EXPECT_EQ(y.at({0, 1, 2, 1}), acc);
}

TEST(Reference, MappingBelowTensorExtentPanics)
{
    // X[i-1, k] reaches row -1 at i = 0.
    Workload w = makeGemm(3, 4, 5);
    w.mappings[size_t(w.tensorIndex("X"))].bias = {-1, 0};
    TensorSet ts = makeInputs(w, 1);
    EXPECT_THROW(runReference(w, ts), PanicError);
}

TEST(Reference, MappingPastTensorExtentPanics)
{
    // Tensors sized for GEMM, then W read as W[k+1, j]: the last k
    // reaches one row past W's extent.
    Workload w = makeGemm(3, 4, 5);
    TensorSet ts = makeInputs(w, 1);
    w.mappings[size_t(w.tensorIndex("W"))].bias = {1, 0};
    EXPECT_THROW(runReference(w, ts), PanicError);
}

} // namespace
} // namespace lego
