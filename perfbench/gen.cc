/**
 * @file
 * Generation workloads: gen_scale (the 32x32 ICOC GEMM design, the
 * 1024-FU row of paper Table IV) and gen_kernels (the eleven Fig. 10
 * 8x8 designs). One op is one design run through the whole flow:
 * generateArchitecture -> codegen -> runBackend -> emitVerilog ->
 * verifyAgainstReference. A pass is one op per design of the set.
 *
 * Runs time whole passes. A traced run adds one traced pass in which
 * the back end is replayed pass by pass (checks.hh replayBackend);
 * the replayed report must equal runBackend's for every design.
 */

#include <cctype>

#include "checks.hh"
#include "common.hh"
#include "kernels.hh"

namespace perfbench
{

namespace
{

using lego::NamedDesign;

std::vector<NamedDesign>
designSet(const std::string &workload)
{
    if (workload == "gen_kernels")
        return lego::fig10Designs();
    // The Table IV 1024-FU row: a 32x32 array over (k, j).
    const lego::Int p = 32;
    std::vector<NamedDesign> out(1);
    out[0].name = "GEMM-ICOC-32x32";
    lego::Workload w = lego::makeGemm(2 * p, 2 * p, 2 * p);
    lego::DataflowSpec spec = lego::makeSimpleSpec(
        w, "icoc", {{"k", p}, {"j", p}}, false);
    lego::addConfig(out[0], w, spec);
    return out;
}

std::string
topName(const std::string &design)
{
    std::string s = "lego_";
    for (char c : design)
        s += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
    return s;
}

/** What one op (one design through the flow) produced. */
struct DesignOut
{
    double seconds = 0;
    double backendSeconds = 0; //!< runBackend or its replay.
    bool ok = false;
    std::string why;
    lego::BackendReport report;
    std::string verilog;
    std::uint64_t interpCycles = 0;
    int dagNodes = 0, dagEdges = 0; //!< At codegen (the LP's size).
};

DesignOut
runDesign(NamedDesign &d, std::uint64_t id, unsigned seed,
          bool replay, std::uint64_t *lpCalls)
{
    DesignOut o;
    SpanGuard span("bench.design", kBenchCat, "design", id);
    const double t0 = nowS();
    lego::Adg adg;
    {
        SpanGuard s("frontend.generate", kBenchCat, "design", id);
        adg = lego::generateArchitecture(d.configs);
    }
    lego::CodegenResult gen;
    {
        SpanGuard s("backend.codegen", kBenchCat, "design", id);
        gen = lego::codegen(adg);
    }
    o.dagNodes = gen.dag.numNodes();
    o.dagEdges = gen.dag.numEdges();
    const double b0 = nowS();
    o.report = replay ? replayBackend(gen, id, lpCalls)
                      : lego::runBackend(gen);
    o.backendSeconds = nowS() - b0;
    {
        SpanGuard s("backend.verilog", kBenchCat, "design", id);
        o.verilog = lego::emitVerilog(gen, topName(d.name));
    }
    bool verified = false;
    {
        SpanGuard s("backend.interp", kBenchCat, "design", id);
        verified = verifyAllConfigs(gen, adg, int(d.configs.size()),
                                    seed, &o.interpCycles);
    }
    o.seconds = nowS() - t0;
    o.ok = designOk(verified, gen, o.verilog, &o.why);
    return o;
}

} // namespace

void
runGen(const Args &a, RunResult &r)
{
    std::vector<NamedDesign> designs;
    const double setup =
        medianSetup(21, [&] { designs = designSet(a.workload); });
    const unsigned seed = unsigned(a.seed);
    const std::size_t n = designs.size();

    // First-pass outputs: every later pass must reproduce them.
    std::vector<DesignOut> first(n);
    std::vector<double> passS, backendS;
    OpPercentiles ops;
    std::uint64_t lpCalls = 0;

    // One pass over the design set; `replay` = the traced pass.
    auto runPass = [&](bool firstPass, bool replay) {
        double passSeconds = 0, passBackend = 0;
        std::vector<double> opMs;
        for (std::size_t i = 0; i < n; ++i) {
            DesignOut o =
                runDesign(designs[i], i, seed, replay, &lpCalls);
            passSeconds += o.seconds;
            passBackend += o.backendSeconds;
            if (firstPass) {
                first[i] = o;
            } else if (o.ok &&
                       !(sameReport(o.report, first[i].report) &&
                         o.verilog == first[i].verilog &&
                         o.interpCycles == first[i].interpCycles)) {
                o.ok = false;
                o.why = replay ? "replayed report differs from "
                                 "runBackend's"
                               : "output differs between passes";
            }
            opMs.push_back(o.seconds * 1e3);
            r.tally.check(o.ok, designs[i].name + ": " + o.why);
        }
        if (!replay) {
            passS.push_back(passSeconds);
            backendS.push_back(passBackend);
            ops.addPass(opMs);
        }
        return passSeconds;
    };
    const double start = nowS();
    do
        runPass(passS.empty(), false);
    while (nowS() - start < a.seconds);
    double tracedPassS = 0;
    if (a.trace) {
        lego::obs::Tracer::setEnabled(true);
        tracedPassS = runPass(false, true);
        lego::obs::Tracer::setEnabled(false);
    }

    double area = 0, power = 0, energyUj = 0, cycles = 0;
    double verilogBytes = 0, nodes = 0, edges = 0, regBits = 0;
    double chains = 0, stars = 0, pins = 0, gated = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const DesignOut &o = first[i];
        const lego::DagCost &c = o.report.final;
        area += c.totalArea();
        power += c.totalPower() / 1e3; // uW -> mW.
        cycles += double(o.interpCycles);
        // mW x cycles at 1 GHz = pJ.
        energyUj += c.totalPower() / 1e3 * double(o.interpCycles) / 1e6;
        verilogBytes += double(o.verilog.size());
        nodes += o.dagNodes;
        edges += o.dagEdges;
        regBits += double(o.report.matchStats.insertedRegBits);
        chains += o.report.reduceStats.chainsCollapsed;
        stars += o.report.rewireStats.starsRewired;
        pins += o.report.pinStats.pinsAfter;
        gated += o.report.gateStats.gatedEdges;
        printDigest("design", designs[i].name,
                    designDigest(c, o.verilog));
    }

    auto &m = r.metrics;
    if (!a.trace) {
        const double passMedian = median(passS);
        m["setup_s"] = setup;
        m["pass_s"] = passMedian;
        m["ops_per_s"] = double(n) / passMedian;
        ops.report(m);
        m["area_um2"] = area;
        m["power_mw"] = power;
        m["sim_mcycles"] = cycles / 1e6;
        m["sim_energy_uj"] = energyUj;
        return;
    }
    m["backend.run_s"] = median(backendS);
    m["backend.dag_nodes"] = nodes;
    m["backend.dag_edges"] = edges;
    m["backend.chains_collapsed"] = chains;
    m["backend.stars_rewired"] = stars;
    m["backend.pins_after"] = pins;
    m["backend.gated_edges"] = gated;
    m["backend.verilog_bytes"] = verilogBytes;
    m["raw.interp_cycles"] = cycles;
    m["lp.delay_match_calls"] = double(lpCalls);
    m["lp.reg_bits"] = regBits;
    m["obs.trace_overhead_pct"] =
        (tracedPassS / median(passS) - 1) * 100;
}

} // namespace perfbench
