/**
 * @file
 * Back-end optimization pass tests: every pass must preserve
 * bit-exact functional behaviour (checked via the interpreter) while
 * reducing the modeled cost; Verilog emission must stay structurally
 * clean after all transformations.
 */

#include <gtest/gtest.h>

#include "backend/interp.hh"
#include "backend/passes.hh"
#include "backend/verilog.hh"
#include "frontend/frontend.hh"
#include "kernels.hh"

namespace lego
{
namespace
{

struct Built
{
    Adg adg;
    CodegenResult gen;
    BackendReport rep;
};

Built
buildOptimized(std::vector<FusedConfig> cfgs, BackendOptions bopt = {})
{
    Built b;
    b.adg = generateArchitecture(std::move(cfgs));
    b.gen = codegen(b.adg);
    b.rep = runBackend(b.gen, bopt);
    return b;
}

/** GEMM broadcast with spatial k-reduction: reducer-rich design. */
std::vector<FusedConfig>
gemmKjBroadcast(Workload &w)
{
    w = makeGemm(4, 4, 8);
    DataflowSpec spec =
        makeSimpleSpec(w, "gemm_kj_bcast", {{"k", 4}, {"j", 2}}, false);
    return {{&w, buildDataflow(w, spec)}};
}

TEST(Passes, OptimizedDesignStillBitExact)
{
    Workload w;
    Built b = buildOptimized(gemmKjBroadcast(w));
    EXPECT_TRUE(delaysMatched(b.gen.dag));
    EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, 0, 61));
}

TEST(Passes, ReductionTreeExtracted)
{
    Workload w;
    Built b = buildOptimized(gemmKjBroadcast(w));
    // k=4 spatial reduction: the commit FUs gather 3 incoming
    // partials + own product -> at least one Reduce node.
    EXPECT_GT(b.rep.reduceStats.reduceNodes, 0);
    EXPECT_FALSE(b.gen.dag.nodesOf(PrimOp::Reduce).empty());
}

TEST(Passes, CostNeverIncreases)
{
    Workload w;
    Built b = buildOptimized(gemmKjBroadcast(w));
    EXPECT_LE(b.rep.final.totalArea(),
              b.rep.baseline.totalArea() * 1.0001);
    EXPECT_LE(b.rep.final.totalPower(),
              b.rep.baseline.totalPower() * 1.0001);
}

TEST(Passes, SystolicOptimizedStillBitExact)
{
    Workload w = makeGemm(8, 6, 8);
    DataflowSpec spec;
    spec.name = "gemm_kj_systolic";
    spec.temporal = {{"i", 2}, {"j", 3}, {"k", 4}, {"i", 4}};
    spec.spatial = {{"k", 2}, {"j", 2}};
    spec.cflow = {1, 1};
    Built b = buildOptimized({{&w, buildDataflow(w, spec)}});
    EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, 0, 67));
}

TEST(Passes, ShiDianNaoOptimizedStillBitExact)
{
    Workload w = makeConv2d(1, 2, 2, 4, 4, 3, 3);
    DataflowSpec spec;
    spec.name = "conv_ohow";
    spec.temporal = {{"n", 1}, {"ow", 2}, {"oh", 2}, {"oc", 2},
                     {"ic", 2}, {"kw", 3}, {"kh", 3}};
    spec.spatial = {{"ow", 2}, {"oh", 2}};
    spec.cflow = {0, 0};
    Built b = buildOptimized({{&w, buildDataflow(w, spec)}});
    EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, 0, 71));
}

TEST(Passes, FusedOptimizedBothConfigsBitExact)
{
    Workload w1 = makeGemm(8, 6, 8);
    DataflowSpec kj;
    kj.name = "kj_systolic";
    kj.temporal = {{"i", 2}, {"j", 3}, {"k", 4}, {"i", 4}};
    kj.spatial = {{"k", 2}, {"j", 2}};
    kj.cflow = {1, 1};
    Workload w2 = makeGemm(8, 6, 8);
    DataflowSpec ij;
    ij.name = "ij_bcast";
    ij.temporal = {{"k", 8}, {"i", 4}, {"j", 3}};
    ij.spatial = {{"i", 2}, {"j", 2}};
    ij.cflow = {0, 0};
    Built b = buildOptimized({{&w1, buildDataflow(w1, kj)},
                              {&w2, buildDataflow(w2, ij)}});
    EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, 0, 73));
    EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, 1, 73));
}

TEST(Passes, MttkrpOptimizedStillBitExact)
{
    Workload w = makeMttkrp(4, 4, 4, 4);
    DataflowSpec spec =
        makeSimpleSpec(w, "mttkrp_kl", {{"k", 2}, {"l", 2}}, false);
    Built b = buildOptimized({{&w, buildDataflow(w, spec)}});
    EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, 0, 79));
}

TEST(Passes, BitwidthShrinksEdges)
{
    Workload w;
    Built b = buildOptimized(gemmKjBroadcast(w));
    EXPECT_LT(b.rep.widthStats.bitsAfter, b.rep.widthStats.bitsBefore);
    // Control-ish signals must not exceed 48 bits, data >= 8 bits.
    for (int v : b.gen.dag.nodesOf(PrimOp::Mul))
        EXPECT_GE(b.gen.dag.node(v).width, 8);
}

TEST(Passes, PowerGatingOnlyOnIdleEdges)
{
    // Single-config designs have no idle configs -> no gating.
    Workload w;
    Built b = buildOptimized(gemmKjBroadcast(w));
    EXPECT_EQ(b.rep.gateStats.gatedEdges, 0);
}

TEST(Passes, PowerGatingFiresOnFusedDesigns)
{
    Workload w1 = makeGemm(4, 4, 8);
    DataflowSpec kj =
        makeSimpleSpec(w1, "kj", {{"k", 2}, {"j", 2}}, true);
    Workload w2 = makeGemm(4, 4, 8);
    DataflowSpec ij =
        makeSimpleSpec(w2, "ij", {{"i", 2}, {"j", 2}}, false);
    Built b = buildOptimized({{&w1, buildDataflow(w1, kj)},
                              {&w2, buildDataflow(w2, ij)}});
    EXPECT_GT(b.rep.gateStats.gatedEdges, 0);
    EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, 0, 83));
    EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, 1, 83));
}

TEST(Passes, AblationTogglesWork)
{
    Workload w;
    BackendOptions none;
    none.reduceTrees = false;
    none.rewireBroadcast = false;
    none.pinReuse = false;
    none.powerGating = false;
    Built off = buildOptimized(gemmKjBroadcast(w), none);
    Workload w2;
    Built on = buildOptimized(gemmKjBroadcast(w2));
    // Full pipeline should not cost more than the bare one.
    EXPECT_LE(on.rep.final.totalArea(),
              off.rep.final.totalArea() * 1.0001);
    EXPECT_TRUE(verifyAgainstReference(off.gen, off.adg, 0, 89));
}

TEST(Verilog, EmitsCleanNetlist)
{
    Workload w;
    Built b = buildOptimized(gemmKjBroadcast(w));
    std::string v = emitVerilog(b.gen, "lego_gemm");
    EXPECT_EQ(lintVerilog(v), "");
    // Library + specialized + top module all present.
    EXPECT_NE(v.find("module lego_pipe"), std::string::npos);
    EXPECT_NE(v.find("module lego_gemm"), std::string::npos);
    EXPECT_NE(v.find("ctrl_counter"), std::string::npos);
    // Every live mul instantiated.
    size_t muls = 0, pos = 0;
    while ((pos = v.find("lego_mul #(.WIDTH(", pos)) != std::string::npos) {
        muls++;
        pos++;
    }
    EXPECT_EQ(muls, size_t(b.gen.dag.nodesOf(PrimOp::Mul).size()));
}

TEST(Verilog, FusedDesignHasProgrammableFifos)
{
    Workload w1 = makeGemm(8, 6, 8);
    DataflowSpec kj;
    kj.name = "kj_systolic";
    kj.temporal = {{"i", 2}, {"j", 3}, {"k", 4}, {"i", 4}};
    kj.spatial = {{"k", 2}, {"j", 2}};
    kj.cflow = {1, 1};
    Workload w2 = makeGemm(8, 6, 8);
    DataflowSpec ij;
    ij.name = "ij_bcast";
    ij.temporal = {{"k", 8}, {"i", 4}, {"j", 3}};
    ij.spatial = {{"i", 2}, {"j", 2}};
    ij.cflow = {0, 0};
    Built b = buildOptimized({{&w1, buildDataflow(w1, kj)},
                              {&w2, buildDataflow(w2, ij)}});
    std::string v = emitVerilog(b.gen, "lego_fused");
    EXPECT_EQ(lintVerilog(v), "");
    EXPECT_NE(v.find("lego_fifo"), std::string::npos);
    EXPECT_NE(v.find("cfg"), std::string::npos);
}

/**
 * The eleven Fig. 10 designs through the whole generation flow:
 * every back-end pass (broadcast rewiring included), Verilog, then
 * the interpreter against the reference on every config.
 */
TEST(FullFlow, Fig10DesignsVerify)
{
    std::vector<NamedDesign> designs = fig10Designs();
    ASSERT_EQ(designs.size(), 11u);
    for (NamedDesign &d : designs) {
        SCOPED_TRACE(d.name);
        Adg adg = generateArchitecture(d.configs);
        CodegenResult gen = codegen(adg);
        runBackend(gen);
        const std::string v = emitVerilog(gen, "lego_fig10");
        for (int cfg = 0; cfg < int(adg.configs.size()); cfg++)
            EXPECT_TRUE(verifyAgainstReference(gen, adg, cfg, 97))
                << "cfg " << cfg;
        EXPECT_TRUE(delaysMatched(gen.dag));
        EXPECT_NO_THROW(gen.dag.validate());
        EXPECT_EQ(lintVerilog(v), "");
    }
}

} // namespace
} // namespace lego
