/**
 * @file
 * dse_explore: DseEngine::explore(defaultSpace(), m) for every
 * fig11Models() model with nproc - 1 pool workers (the calling
 * thread helps drain each batch, so nproc threads work). One op is
 * one explore call.
 * A pass is a cold sweep over the models on a fresh engine followed
 * by a warm sweep on the same engine. The models run in a new order
 * each pass, drawn from --seed: the cold sweep's cost depends on the
 * order (a layer shared by two models is evaluated by whichever runs
 * first), so a run's medians are over many orders, not one. The
 * default Exhaustive strategy ignores DseOptions::seed and prunes
 * nothing, so dse.explore.pruned is 0 here by construction.
 * Every archive must equal the one-thread archive of its model.
 */

#include "checks.hh"
#include "common.hh"

namespace perfbench
{

namespace
{

using lego::dse::DseEngine;
using lego::dse::DseOptions;
using lego::dse::DseResult;

/** What one cold + warm pass measured. */
struct Pass
{
    double coldS = 0, warmS = 0;
    std::vector<double> opMs;
    lego::dse::DseStats stats; //!< Summed over both sweeps.
    lego::dse::CacheCounters warmCache; //!< Warm sweep only.
    lego::dse::CacheCounters cache;     //!< At the end of the pass.
    std::uint64_t modelEvals = 0;
};

Pass
runPass(const std::vector<lego::Model> &models,
        const std::vector<std::size_t> &order,
        const lego::dse::CandidateSpace &space, const DseOptions &opt,
        const std::vector<lego::dse::ParetoArchive> &ref, Tally &tally)
{
    Pass p;
    DseEngine engine(opt);
    lego::dse::CacheCounters beforeWarm;
    for (int warm = 0; warm < 2; ++warm) {
        if (warm)
            beforeWarm = engine.cache().counters();
        const double t0 = nowS();
        for (std::size_t i : order) {
            const double c0 = nowS();
            DseResult res;
            {
                SpanGuard s("bench.explore", kBenchCat, "model", i);
                res = engine.explore(space, models[i]);
            }
            p.opMs.push_back((nowS() - c0) * 1e3);
            p.stats.proposed += res.stats.proposed;
            p.stats.evaluated += res.stats.evaluated;
            p.stats.pruned += res.stats.pruned;
            tally.check(!res.degraded &&
                            sameArchive(res.archive, ref[i]) &&
                            res.archive.bestLatency(),
                        models[i].name + (warm ? " (warm)" : " (cold)") +
                            ": archive differs from one thread's");
        }
        (warm ? p.warmS : p.coldS) = nowS() - t0;
    }
    p.cache = engine.cache().counters();
    p.warmCache = p.cache - beforeWarm;
    p.modelEvals = engine.evaluator().counters().modelEvals;
    return p;
}

} // namespace

void
runExplore(const Args &a, RunResult &r)
{
    std::vector<lego::Model> models;
    lego::dse::CandidateSpace space = lego::dse::defaultSpace();
    DseOptions opt;
    // The pool's workers plus the calling thread fill the cores.
    opt.threads = std::max(1, nproc() - 1);
    const double setup = medianSetup(21, [&] {
        models = lego::fig11Models();
        space = lego::dse::defaultSpace();
        DseEngine engine(opt);
    });

    std::vector<std::size_t> order(models.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    lego::dse::SplitMix64 rng(a.seed);

    // The one-thread reference archives, in model order.
    std::vector<lego::dse::ParetoArchive> ref;
    {
        DseOptions one = opt;
        one.threads = 1;
        DseEngine engine(one);
        for (const lego::Model &m : models) {
            ref.push_back(engine.explore(space, m).archive);
            printDigest("archive", m.name, archiveDigest(ref.back()));
        }
    }

    std::vector<Pass> passes;
    OpPercentiles ops;
    const double start = nowS();
    do {
        shuffle(order, rng);
        passes.push_back(runPass(models, order, space, opt, ref, r.tally));
        ops.addPass(passes.back().opMs);
    } while (passes.size() < 3 || nowS() - start < a.seconds);

    auto passSeconds = [](const std::vector<Pass> &ps) {
        std::vector<double> s;
        for (const Pass &p : ps)
            s.push_back(p.coldS + p.warmS);
        return median(s);
    };
    auto &m = r.metrics;
    if (a.trace) {
        const double wait0 = histogramSum("pool.queue_wait_us");
        const double run0 = histogramSum("pool.run_us");
        lego::obs::Tracer::setEnabled(true);
        shuffle(order, rng);
        const Pass p = runPass(models, order, space, opt, ref, r.tally);
        lego::obs::Tracer::setEnabled(false);
        std::vector<double> cold, warm;
        for (const Pass &q : passes) {
            cold.push_back(q.coldS);
            warm.push_back(q.warmS);
        }
        m["dse.model_evals"] = double(p.modelEvals);
        m["dse.explore.proposed"] = double(p.stats.proposed);
        m["dse.explore.evaluated"] = double(p.stats.evaluated);
        m["dse.explore.pruned"] = double(p.stats.pruned);
        m["dse.cache.l0_hit_rate"] =
            hitRate(p.warmCache.l0Hits, p.warmCache.l0Misses);
        m["dse.cache.l1_hit_rate"] =
            hitRate(p.warmCache.hits, p.warmCache.misses);
        m["dse.cache.front_hit_rate"] =
            hitRate(p.cache.frontHits, p.cache.frontMisses);
        m["dse.cache.evictions"] = double(p.cache.evictions);
        m["dse.cache.resident_bytes"] = double(p.cache.residentBytes);
        m["dse.explore_cold_s"] = median(cold);
        m["dse.explore_warm_s"] = median(warm);
        m["pool.wait_s"] =
            (histogramSum("pool.queue_wait_us") - wait0) / 1e6;
        m["pool.run_s"] = (histogramSum("pool.run_us") - run0) / 1e6;
        m["obs.trace_overhead_pct"] =
            ((p.coldS + p.warmS) / passSeconds(passes) - 1) * 100;
        return;
    }

    double cycles = 0, energyPj = 0, areaMm2 = 0, powerMw = 0;
    for (const lego::dse::ParetoArchive &arc : ref) {
        const lego::dse::DsePoint *best = arc.bestLatency();
        if (!best)
            continue; // Already counted as a failed op.
        cycles += best->latencyCycles;
        energyPj += best->energyPj;
        areaMm2 += best->areaMm2;
        powerMw += best->powerMw;
    }
    const double passMedian = passSeconds(passes);
    m["setup_s"] = setup;
    m["pass_s"] = passMedian;
    m["ops_per_s"] = 2.0 * double(models.size()) / passMedian;
    ops.report(m);
    m["area_um2"] = areaMm2 * 1e6;
    m["power_mw"] = powerMw;
    m["sim_mcycles"] = cycles / 1e6;
    m["sim_energy_uj"] = energyPj / 1e6;
}

} // namespace perfbench
