/**
 * @file
 * Identity pin for the largest generated design of paper Table IV:
 * the 32x32 ICOC GEMM array (1024 FUs) through the whole generation
 * flow, generateArchitecture -> codegen -> runBackend -> emitVerilog,
 * checked by the interpreter. The expected register bits, final cost
 * and Verilog hash were recorded from the seed successive-shortest-
 * path solver; any change to delay matching or the LP solvers that
 * moves a register shows up here. The interpreter's statistics
 * (cycles, reads, writes, pipeline depth) were recorded from the
 * per-node-history interpreter and pin its cycle-level behaviour.
 */

#include <gtest/gtest.h>

#include "lego.hh"

namespace lego
{
namespace
{

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = kFnv1aOffset;
    for (char c : s)
        h = fnv1aByte(h, std::uint8_t(c));
    return h;
}

TEST(ScaleDesign, GemmIcoc32x32Identical)
{
    const Int p = 32;
    Workload w = makeGemm(2 * p, 2 * p, 2 * p);
    DataflowSpec spec =
        makeSimpleSpec(w, "icoc", {{"k", p}, {"j", p}}, false);
    Adg adg = generateArchitecture({{&w, buildDataflow(w, spec)}});
    CodegenResult gen = codegen(adg);
    BackendReport rep = runBackend(gen);
    std::string rtl = emitVerilog(gen, "lego_GEMM_ICOC_32x32");

    EXPECT_TRUE(delaysMatched(gen.dag));
    InterpStats st;
    EXPECT_TRUE(verifyAgainstReference(gen, adg, 0, 1, &st));
    EXPECT_EQ(st.cycles, 271);
    EXPECT_EQ(st.reads, 270336);
    EXPECT_EQ(st.writes, 8192);
    EXPECT_EQ(st.pipelineDepth, 11);
    EXPECT_EQ(rep.matchStats.insertedRegBits, 30800);

    const DagCost &c = rep.final;
    EXPECT_DOUBLE_EQ(c.regArea, 67759.999999999767);
    EXPECT_DOUBLE_EQ(c.arithArea, 114035.20000000106);
    EXPECT_DOUBLE_EQ(c.muxArea, 0);
    EXPECT_DOUBLE_EQ(c.ctrlArea, 79246.400000001624);
    EXPECT_DOUBLE_EQ(c.portArea, 36480);
    EXPECT_DOUBLE_EQ(c.regPower, 33879.999999999884);
    EXPECT_DOUBLE_EQ(c.arithPower, 38982.720000000249);
    EXPECT_DOUBLE_EQ(c.muxPower, 0);
    EXPECT_DOUBLE_EQ(c.ctrlPower, 15571.599999999697);
    EXPECT_DOUBLE_EQ(c.portPower, 10944.000000000224);
    EXPECT_EQ(fnv1a(rtl), 0x3b62a9a903ff04baull);

    // The four LP solves' work. Phases, level rounds and augmenting
    // paths equal the plain primal-dual loop's (no early exits, binary
    // heap, full adjacency scans), so the solver still walks the same
    // trajectory. That loop popped 861,941 nodes in Dijkstra and
    // scanned 31,341,915 arc slots in the level BFS.
    EXPECT_EQ(rep.lp.phases, 117);
    EXPECT_EQ(rep.lp.rounds, 1146);
    EXPECT_EQ(rep.lp.paths, 17985);
    EXPECT_EQ(rep.lp.settled, 544453);
    EXPECT_EQ(rep.lp.scanned, 13245736);
}

} // namespace
} // namespace lego
