/**
 * @file
 * Output checks and digests of the benchmark, shared by the workload
 * runners and the checker self-test (selftest.cc):
 *
 *  - a generated design passes when the interpreter reproduces the
 *    reference result for every config, delays are matched, the DAG
 *    validates, and the Verilog lints clean;
 *  - the back-end replay runs runBackend's documented pass sequence
 *    through the public pass functions, one bench span per pass, and
 *    must reproduce runBackend's report field for field;
 *  - a served response passes when it is ok, not shed, degraded or
 *    errored, and equal (serve::sameResponse) to the serial replay;
 *  - an explored archive passes when it equals the one-thread
 *    archive point for point.
 */

#ifndef LEGO_PERFBENCH_CHECKS_HH
#define LEGO_PERFBENCH_CHECKS_HH

#include <string>
#include <vector>

#include "common.hh"
#include "lego.hh"

namespace perfbench
{

inline bool
sameCost(const lego::DagCost &a, const lego::DagCost &b)
{
    return a.regArea == b.regArea && a.arithArea == b.arithArea &&
           a.muxArea == b.muxArea && a.ctrlArea == b.ctrlArea &&
           a.portArea == b.portArea && a.regPower == b.regPower &&
           a.arithPower == b.arithPower &&
           a.muxPower == b.muxPower && a.ctrlPower == b.ctrlPower &&
           a.portPower == b.portPower;
}

/** Field-for-field equality of two back-end reports. */
inline bool
sameReport(const lego::BackendReport &a, const lego::BackendReport &b)
{
    return sameCost(a.baseline, b.baseline) &&
           sameCost(a.afterReduce, b.afterReduce) &&
           sameCost(a.afterRewire, b.afterRewire) &&
           sameCost(a.afterPinReuse, b.afterPinReuse) &&
           sameCost(a.final, b.final) &&
           a.reduceStats.chainsCollapsed ==
               b.reduceStats.chainsCollapsed &&
           a.reduceStats.addersRemoved == b.reduceStats.addersRemoved &&
           a.reduceStats.reduceNodes == b.reduceStats.reduceNodes &&
           a.rewireStats.starsRewired == b.rewireStats.starsRewired &&
           a.rewireStats.tapsInserted == b.rewireStats.tapsInserted &&
           a.rewireStats.regBitsSavedEstimate ==
               b.rewireStats.regBitsSavedEstimate &&
           a.pinStats.reducersOptimized ==
               b.pinStats.reducersOptimized &&
           a.pinStats.pinsBefore == b.pinStats.pinsBefore &&
           a.pinStats.pinsAfter == b.pinStats.pinsAfter &&
           a.pinStats.muxesAdded == b.pinStats.muxesAdded &&
           a.gateStats.gatedEdges == b.gateStats.gatedEdges &&
           a.gateStats.gatedRegBits == b.gateStats.gatedRegBits &&
           a.matchStats.insertedRegs == b.matchStats.insertedRegs &&
           a.matchStats.insertedRegBits ==
               b.matchStats.insertedRegBits &&
           a.widthStats.bitsBefore == b.widthStats.bitsBefore &&
           a.widthStats.bitsAfter == b.widthStats.bitsAfter;
}

/**
 * runBackend(gen) with default options, replayed pass by pass through
 * the public pass functions (the sequence documented in
 * backend/passes.hh), one bench span per step. `lpCalls` counts the
 * delay-matching solves.
 */
inline lego::BackendReport
replayBackend(lego::CodegenResult &gen, std::uint64_t design,
              std::uint64_t *lpCalls)
{
    using namespace lego;
    SpanGuard all("backend.replay", kBenchCat, "design", design);
    Dag &dag = gen.dag;
    BackendReport rep;
    auto copy = [&] {
        SpanGuard s("backend.dag_copy", kBenchCat, "design", design);
        return dag;
    };
    auto pipeline = [&](Dag &d) {
        SpanGuard s("backend.pipeline", kBenchCat, "design", design);
        assignPipelineLatencies(d);
    };
    auto match = [&](Dag &d) {
        SpanGuard s("lp.delay_match", kBenchCat, "design", design);
        ++*lpCalls;
        return runDelayMatching(d);
    };
    auto cost = [&](const Dag &d) {
        SpanGuard s("backend.dag_cost", kBenchCat, "design", design);
        return dagCost(d);
    };
    auto bitwidth = [&] {
        SpanGuard s("backend.bitwidth", kBenchCat, "design", design);
        return inferBitwidths(dag);
    };

    rep.widthStats = bitwidth();
    {
        Dag base = copy();
        pipeline(base);
        match(base);
        rep.baseline = cost(base);
    }
    {
        SpanGuard s("backend.reduce_tree", kBenchCat, "design", design);
        rep.reduceStats = extractReductionTrees(dag);
    }
    pipeline(dag);
    {
        Dag t = copy();
        match(t);
        rep.afterReduce = cost(t);
    }
    {
        SpanGuard s("backend.rewire", kBenchCat, "design", design);
        rep.rewireStats = rewireBroadcasts(dag);
    }
    pipeline(dag);
    rep.matchStats = match(dag);
    rep.afterRewire = cost(dag);
    {
        SpanGuard s("backend.pin_reuse", kBenchCat, "design", design);
        rep.pinStats = reusePins(dag);
    }
    rep.afterPinReuse = cost(dag);
    {
        SpanGuard s("backend.power_gate", kBenchCat, "design", design);
        rep.gateStats = applyPowerGating(dag);
    }
    bitwidth();
    rep.final = cost(dag);
    {
        SpanGuard s("backend.validate", kBenchCat, "design", design);
        dag.validate();
    }
    return rep;
}

/**
 * The verdict on one finished design: `verified` is the interpreter-
 * vs-reference result (run inside the timed flow, verifyAllConfigs);
 * the rest is checked here: matched delays, a valid DAG, clean
 * Verilog lint.
 */
inline bool
designOk(bool verified, const lego::CodegenResult &gen,
         const std::string &verilog, std::string *why)
{
    if (!verified) {
        *why = "interpreter disagrees with the reference";
        return false;
    }
    if (!lego::delaysMatched(gen.dag)) {
        *why = "delays not matched";
        return false;
    }
    try {
        gen.dag.validate();
    } catch (const std::exception &e) {
        *why = std::string("invalid DAG: ") + e.what();
        return false;
    }
    const std::string lint = lego::lintVerilog(verilog);
    if (!lint.empty()) {
        *why = "Verilog lint: " + lint;
        return false;
    }
    return true;
}

/** Interpret every config against the reference executor. */
inline bool
verifyAllConfigs(const lego::CodegenResult &gen, const lego::Adg &adg,
                 int configs, unsigned seed, std::uint64_t *cycles)
{
    bool ok = true;
    for (int c = 0; c < configs; ++c) {
        lego::InterpStats st;
        ok = lego::verifyAgainstReference(gen, adg, c, seed, &st) && ok;
        *cycles += std::uint64_t(st.cycles);
    }
    return ok;
}

/** Digest of one design's outputs: final DagCost and Verilog. */
inline Digest
designDigest(const lego::DagCost &c, const std::string &verilog)
{
    Digest d;
    for (double v : {c.regArea, c.arithArea, c.muxArea, c.ctrlArea,
                     c.portArea, c.regPower, c.arithPower, c.muxPower,
                     c.ctrlPower, c.portPower})
        d.pod(v);
    d.str(verilog);
    return d;
}

/** A served response that needs no comparison to be a failure. */
inline bool
responseHealthy(const lego::serve::ServeResponse &r)
{
    return r.ok && !r.shed && !r.degraded && r.error.empty() &&
           !r.schedules.empty();
}

/**
 * Check each served response (one op each) against the serial
 * replay's response at the same position.
 */
inline void
checkResponses(const std::vector<lego::serve::ServeResponse> &got,
               const std::vector<lego::serve::ServeResponse> &ref,
               Tally &tally)
{
    for (std::size_t i = 0; i < got.size(); ++i) {
        const bool ok = responseHealthy(got[i]) && i < ref.size() &&
                        lego::serve::sameResponse(got[i], ref[i]);
        tally.check(ok, "response " + got[i].id);
    }
    if (got.size() < ref.size())
        for (std::size_t i = got.size(); i < ref.size(); ++i)
            tally.check(false, "missing response " + ref[i].id);
}

inline void
digestSummary(Digest &d, const lego::RunSummary &s)
{
    d.pod(s.totalCycles);
    d.pod(s.tensorCycles);
    d.pod(s.ppuCycles);
    d.pod(s.totalEnergyPj);
    d.pod(s.totalMacs);
    d.pod(s.dramBytes);
}

/** Digest of a response set (payload fields only). */
inline Digest
responsesDigest(const std::vector<lego::serve::ServeResponse> &rs)
{
    Digest d;
    for (const lego::serve::ServeResponse &r : rs) {
        d.str(r.id);
        d.pod(r.ok);
        for (const std::string &m : r.models)
            d.str(m);
        for (const lego::ScheduleResult &s : r.schedules) {
            digestSummary(d, s.summary);
            d.pod(s.perLayer.size());
            d.pod(s.segments.size());
            d.pod(s.compose.feasible);
            d.pod(s.compose.swaps);
            d.pod(s.compose.frontierPoints);
        }
    }
    return d;
}

/** Point-for-point archive equality (ids, objectives, hardware). */
inline bool
sameArchive(const lego::dse::ParetoArchive &a,
            const lego::dse::ParetoArchive &b)
{
    const auto &pa = a.points();
    const auto &pb = b.points();
    if (pa.size() != pb.size())
        return false;
    for (std::size_t i = 0; i < pa.size(); ++i)
        if (pa[i].id != pb[i].id ||
            pa[i].latencyCycles != pb[i].latencyCycles ||
            pa[i].energyPj != pb[i].energyPj ||
            pa[i].areaMm2 != pb[i].areaMm2 ||
            pa[i].powerMw != pb[i].powerMw)
            return false;
    return true;
}

inline Digest
archiveDigest(const lego::dse::ParetoArchive &a)
{
    Digest d;
    for (const lego::dse::DsePoint &p : a.points()) {
        d.pod(p.id);
        d.pod(p.latencyCycles);
        d.pod(p.energyPj);
        d.pod(p.areaMm2);
        d.pod(p.powerMw);
    }
    return d;
}

} // namespace perfbench

#endif // LEGO_PERFBENCH_CHECKS_HH
