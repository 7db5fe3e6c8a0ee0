/**
 * @file
 * Reproduces the Section VI-B(f) DSE experiment through the DSE
 * engine: a Timeloop-style mapping search with LEGO as the generator
 * and cost feedback, under Eyeriss-equivalent resources (168 FUs),
 * finds a design that keeps Eyeriss-dataflow latency while cutting
 * power by ~9%.
 *
 * Three engine-driven stages:
 *  1. mapping-space search on the fixed Eyeriss instance (fixed
 *     heuristic tiling vs searched tiling) via DseEngine::mapModel;
 *  2. hardware-space exploration of the Eyeriss-equivalent resource
 *     box (exhaustive strategy, Pareto archive over latency /
 *     energy / area);
 *  3. determinism + scaling check: 1-worker vs 8-worker exploration
 *     must produce the identical frontier for the same seed.
 */

#include <cstdio>
#include <string>

#include "lego.hh"

using namespace lego;

namespace
{

HardwareConfig
eyerissConfig()
{
    HardwareConfig hw;
    hw.name = "eyeriss";
    hw.rows = 12;
    hw.cols = 14;
    hw.l1Kb = 182;
    hw.freqGhz = 0.2;
    hw.numPpus = 4;
    hw.dataflows = {DataflowTag::KHOH};
    return hw;
}

bool
sameFrontier(const dse::ParetoArchive &a, const dse::ParetoArchive &b)
{
    std::vector<dse::DsePoint> pa = a.sorted(), pb = b.sorted();
    if (pa.size() != pb.size())
        return false;
    for (std::size_t i = 0; i < pa.size(); ++i)
        if (pa[i].id != pb[i].id ||
            pa[i].latencyCycles != pb[i].latencyCycles ||
            pa[i].energyPj != pb[i].energyPj ||
            pa[i].areaMm2 != pb[i].areaMm2)
            return false;
    return true;
}

} // namespace

int
main()
{
    Model rn50 = makeResNet50();
    HardwareConfig eyeriss = eyerissConfig();

    // ---- 1. mapping search on the fixed instance -------------------
    std::printf("=== Timeloop-searched mapping via LEGO (Eyeriss "
                "resources, ResNet50) ===\n");
    dse::DseOptions mopt;
    mopt.threads = 8;
    dse::DseEngine mappingEngine(mopt);
    ScheduleResult searched = mappingEngine.mapModel(eyeriss, rn50);

    double fixed_e = 0, searched_e = 0;
    Int fixed_c = 0, searched_c = 0;
    for (std::size_t i = 0; i < rn50.layers.size(); ++i) {
        const Layer &l = rn50.layers[i];
        if (!l.isTensorOp())
            continue;
        // What a hand-tuned Eyeriss compiler ships: one heuristic
        // tiling for every layer.
        Mapping fixed{DataflowTag::KHOH, 32, 32, 32};
        LayerResult rf = runLayer(eyeriss, l, fixed);
        const LayerResult &rs = searched.perLayer[i].result;
        fixed_e += double(l.repeat) * rf.energyPj;
        searched_e += double(l.repeat) * rs.energyPj;
        fixed_c += Int(l.repeat) * rf.cycles;
        searched_c += Int(l.repeat) * rs.cycles;
    }
    std::printf("fixed tiling:    %lld cycles, %.1f mJ\n",
                (long long)fixed_c, fixed_e * 1e-9);
    std::printf("searched tiling: %lld cycles, %.1f mJ\n",
                (long long)searched_c, searched_e * 1e-9);
    std::printf("-> %.1f%% energy/power reduction at equal-or-better "
                "latency (paper: 9%%)\n",
                100.0 * (1.0 - searched_e / fixed_e));
    std::printf("memo cache: %zu layer frontiers (%llu hits)\n",
                mappingEngine.cache().frontierCount(),
                (unsigned long long)
                    mappingEngine.cache().counters().frontHits);

    // ---- 2. hardware DSE in the Eyeriss-equivalent box -------------
    std::printf("\n=== Hardware DSE, Eyeriss-equivalent resource box "
                "(168 FUs) ===\n");
    dse::CandidateSpace space = dse::eyerissEquivalentSpace();
    dse::DseOptions hopt;
    hopt.threads = 8;
    hopt.strategy = dse::StrategyKind::Exhaustive;
    dse::DseEngine engine(hopt);
    dse::DsePoint base = engine.evaluate(eyeriss, rn50);
    dse::DseResult r = engine.explore(space, rn50);
    std::printf("evaluated %zu candidates, frontier %zu points, "
                "frontier memo %llu hits / %llu misses, %.2fs\n",
                r.stats.evaluated, r.archive.size(),
                (unsigned long long)r.stats.frontHits,
                (unsigned long long)r.stats.frontMisses,
                r.stats.wallSeconds);
    std::printf("hot path: %llu model evals, %llu tilings pruned "
                "(%llu whole dataflows), %llu layers deduped\n",
                (unsigned long long)r.stats.modelEvals,
                (unsigned long long)r.stats.mappingsPruned,
                (unsigned long long)r.stats.dataflowsPruned,
                (unsigned long long)r.stats.layersDeduped);
    const dse::DsePoint *pick =
        r.archive.bestUnderLatency(base.latencyCycles, 2);
    if (pick) {
        std::printf("baseline (Eyeriss dataflow): %.0f cycles, "
                    "%.1f mW\n", base.latencyCycles, base.powerMw);
        std::printf("picked: %dx%d, %lld KB L1, %d PPUs, %zu "
                    "dataflow(s): %.0f cycles, %.1f mW\n",
                    pick->hw.rows, pick->hw.cols,
                    (long long)pick->hw.l1Kb, pick->hw.numPpus,
                    pick->hw.dataflows.size(), pick->latencyCycles,
                    pick->powerMw);
        std::printf("-> %.1f%% power reduction at equal-or-better "
                    "latency (paper: ~9%%)\n",
                    100.0 * (1.0 - pick->powerMw / base.powerMw));
    }

    // ---- 3. determinism + scaling ----------------------------------
    std::printf("\n=== Thread-count determinism (anneal strategy, "
                "seed 0x5eed) ===\n");
    dse::DseOptions a1;
    a1.threads = 1;
    a1.strategy = dse::StrategyKind::Anneal;
    a1.seed = 0x5eed;
    a1.samples = 24;
    a1.rounds = 4;
    dse::DseOptions a8 = a1;
    a8.threads = 8;
    dse::DseResult r1 = dse::DseEngine(a1).explore(space, rn50);
    dse::DseResult r8 = dse::DseEngine(a8).explore(space, rn50);
    bool same = sameFrontier(r1.archive, r8.archive);
    std::printf("1 worker:  %zu evals, %.2fs\n", r1.stats.evaluated,
                r1.stats.wallSeconds);
    std::printf("8 workers: %zu evals, %.2fs (speedup %.2fx)\n",
                r8.stats.evaluated, r8.stats.wallSeconds,
                r8.stats.wallSeconds > 0
                    ? r1.stats.wallSeconds / r8.stats.wallSeconds
                    : 0.0);
    std::printf("identical frontier: %s\n", same ? "yes" : "NO");

    // ---- 4. persistent cost cache: save -> load -> warm re-run -----
    std::printf("\n=== Persistent cost cache (warm-start a second "
                "sweep) ===\n");
    const std::string cachePath = "timeloop_dse.cache";
    std::remove(cachePath.c_str()); // The first run must start cold.
    dse::DseOptions copt;
    copt.threads = 8;
    copt.strategy = dse::StrategyKind::PrunedExhaustive;
    copt.cachePath = cachePath;
    dse::DseEngine cold(copt);
    dse::DseResult rc = cold.explore(space, rn50);
    bool saved = cold.saveCache();
    std::printf("cold run: %zu evals (%zu pruned), %llu hits / %llu "
                "misses, cache of %zu frontiers %s\n",
                rc.stats.evaluated, rc.stats.pruned,
                (unsigned long long)rc.stats.frontHits,
                (unsigned long long)rc.stats.frontMisses,
                cold.cache().frontierCount(),
                saved ? "saved" : "NOT SAVED");
    dse::DseEngine warm(copt); // Warm-starts from the file.
    dse::DseResult rw = warm.explore(space, rn50);
    double lookups =
        double(rw.stats.frontHits + rw.stats.frontMisses);
    double hitRate =
        lookups > 0 ? double(rw.stats.frontHits) / lookups : 0.0;
    bool warmOk = saved && sameFrontier(rc.archive, rw.archive) &&
                  hitRate > 0.9;
    std::printf("warm run: %zu evals, %llu hits / %llu misses "
                "(%.1f%% hit rate), identical frontier, >90%% hits: "
                "%s\n",
                rw.stats.evaluated,
                (unsigned long long)rw.stats.frontHits,
                (unsigned long long)rw.stats.frontMisses,
                100.0 * hitRate, warmOk ? "yes" : "NO");
    std::remove(cachePath.c_str());

    // ---- 5. per-layer frontiers + budget-composed schedules --------
    std::printf("\n=== Frontier-composed mapping schedules (K = 8, "
                "Eyeriss, ResNet50) ===\n");
    dse::DseOptions fopt;
    fopt.threads = 8;
    fopt.compose.frontierK = 8;
    dse::DseEngine fengine(fopt);
    ScheduleResult unbudgeted = fengine.mapModelComposed(eyeriss, rn50);
    // THE invariant: the unbudgeted composition over K = 8 frontiers
    // reproduces the scalar (stage 1) schedule bit-for-bit.
    bool k1Identity =
        unbudgeted.summary.totalCycles ==
            searched.summary.totalCycles &&
        unbudgeted.summary.totalEnergyPj ==
            searched.summary.totalEnergyPj;
    for (std::size_t i = 0; i < searched.perLayer.size(); ++i) {
        const Mapping &a = searched.perLayer[i].mapping;
        const Mapping &b = unbudgeted.perLayer[i].mapping;
        k1Identity = k1Identity && a.dataflow == b.dataflow &&
                     a.tm == b.tm && a.tn == b.tn && a.tk == b.tk;
    }
    std::printf("%zu frontier points across %zu layers; best-latency "
                "composition identical to scalar schedule: %s\n",
                unbudgeted.compose.frontierPoints,
                rn50.layers.size(), k1Identity ? "yes" : "NO");
    const double e0 = unbudgeted.summary.totalEnergyPj;
    for (double frac : {0.999, 0.995, 0.99}) {
        // The frontiers are already in hand — composition is pure
        // selection, so budget points reuse them instead of
        // re-sweeping the mapping space.
        ComposeOptions co;
        co.frontierK = 8;
        co.energyBudgetPj = frac * e0;
        ScheduleResult comp =
            composeSchedule(rn50, unbudgeted.perLayerFrontier, co);
        std::printf("energy budget %5.1f%%: %lld cycles, %.3f mJ, "
                    "%zu swaps, %s\n", 100 * frac,
                    (long long)comp.summary.totalCycles,
                    comp.summary.totalEnergyPj * 1e-9,
                    comp.compose.swaps,
                    comp.compose.feasible ? "met" : "infeasible");
    }
    return same && warmOk && k1Identity ? 0 : 1;
}
