/**
 * @file
 * Self-test of the benchmark's checker: one good and one corrupted
 * design, and a served trace with one altered response, go through
 * the same checks the workloads use (checks.hh). The test passes when
 * the checker accepts the good outputs and counts exactly the two
 * corrupted ones in the failure rate. Run it with
 *
 *   python3 perfbench/run.py --selftest
 */

#include "checks.hh"
#include "kernels.hh"

using namespace perfbench;

namespace
{

/** The flow with the delay-matching solve skipped: runBackend's pass
 *  sequence minus runDelayMatching, on a second lowering. */
void
backendWithoutDelayMatching(lego::CodegenResult &gen)
{
    lego::Dag &dag = gen.dag;
    lego::inferBitwidths(dag);
    lego::extractReductionTrees(dag);
    lego::assignPipelineLatencies(dag);
    lego::rewireBroadcasts(dag);
    lego::assignPipelineLatencies(dag);
    lego::reusePins(dag);
    lego::applyPowerGating(dag);
    lego::inferBitwidths(dag);
}

void
checkDesign(lego::NamedDesign &d, bool matchDelays, Tally &tally)
{
    const lego::Adg adg = lego::generateArchitecture(d.configs);
    lego::CodegenResult gen = lego::codegen(adg);
    if (matchDelays)
        lego::runBackend(gen);
    else
        backendWithoutDelayMatching(gen);
    const std::string verilog = lego::emitVerilog(gen, "lego_selftest");
    std::uint64_t cycles = 0;
    const bool verified = verifyAllConfigs(
        gen, adg, int(d.configs.size()), 7, &cycles);
    std::string why;
    const bool ok = designOk(verified, gen, verilog, &why);
    tally.check(ok, d.name + (matchDelays ? "" : " (no delay matching)") +
                        ": " + why);
}

std::vector<lego::serve::ServeResponse>
serveLines(const std::vector<std::string> &lines)
{
    lego::serve::ServeOptions opt;
    lego::serve::ServeLoop loop(opt);
    for (const std::string &l : lines)
        loop.submitLine(l);
    loop.drain();
    std::vector<lego::serve::ServeResponse> out = loop.responses();
    loop.shutdown();
    return out;
}

} // namespace

int
main()
{
    Tally tally;

    std::vector<lego::NamedDesign> designs = lego::fig10Designs();
    lego::NamedDesign &gemm = designs.at(4); // GEMM-IJ.
    checkDesign(gemm, true, tally);
    checkDesign(gemm, false, tally);

    const std::vector<std::string> lines = {
        R"({"id": "a", "models": ["lenet"], "k": 4})",
        R"({"id": "b", "models": ["alexnet", "lenet"], "objective": "energy"})",
        R"({"id": "c", "models": ["bert"], "budget": 1e10, "k": 8})",
    };
    const auto ref = serveLines(lines);
    auto got = serveLines(lines);
    got.at(1).schedules.at(0).summary.totalCycles += 1;
    checkResponses(got, ref, tally);

    const double failRate = double(tally.failed) / double(tally.attempted);
    std::printf("selftest: attempted %llu, failed %llu, fail_rate %.3f\n",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed), failRate);
    const bool ok = tally.attempted == 5 && tally.failed == 2;
    std::printf("selftest: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
