/**
 * @file
 * Reproduces Fig. 13: per-pass area-saving breakdown of the back end
 * (reduction tree extraction, broadcast rewiring, pin reusing) on the
 * eleven kernel-dataflow designs. Paper geomean: 35% total area
 * saving (15% + 15% + 5%).
 *
 * The eleven backend builds fan out across the DSE worker pool
 * (ordered reduction keeps the table and geomeans identical to the
 * old sequential loop), and a chip-level area-optimization search
 * through DseEngine closes the bench: the smallest design that still
 * holds a latency target.
 */

#include <cmath>
#include <cstdio>

#include "kernels.hh"

using namespace lego;

int
main()
{
    std::printf("=== Fig. 13: area-saving breakdown per backend "
                "pass ===\n");
    std::printf("%-16s | %8s %8s %8s | %8s (paper total 35%%)\n",
                "design", "reduce", "rewire", "pin", "total");

    auto designs = fig10Designs();
    dse::WorkerPool pool(4);
    std::vector<BackendReport> reports =
        pool.parallelMap<BackendReport>(
            designs.size(),
            [&](std::size_t i) { return buildDesign(designs[i]); });

    double rp = 1, wp = 1, pp = 1, tp = 1;
    for (std::size_t i = 0; i < designs.size(); ++i) {
        const BackendReport &rep = reports[i];
        double base = rep.baseline.totalArea();
        double r = 1.0 - rep.afterReduce.totalArea() / base;
        double w = 1.0 - rep.afterRewire.totalArea() /
                             rep.afterReduce.totalArea();
        double p = 1.0 - rep.afterPinReuse.totalArea() /
                             rep.afterRewire.totalArea();
        double t = 1.0 - rep.final.totalArea() / base;
        std::printf("%-16s | %7.1f%% %7.1f%% %7.1f%% | %7.1f%%\n",
                    designs[i].name.c_str(), 100 * r, 100 * w,
                    100 * p, 100 * t);
        rp *= 1.0 - r;
        wp *= 1.0 - w;
        pp *= 1.0 - p;
        tp *= 1.0 - t;
    }
    double n = double(designs.size());
    std::printf("%-16s | %7.1f%% %7.1f%% %7.1f%% | %7.1f%%  "
                "(paper 15/15/5 -> 35%%)\n", "GEOMEAN",
                100 * (1 - std::pow(rp, 1 / n)),
                100 * (1 - std::pow(wp, 1 / n)),
                100 * (1 - std::pow(pp, 1 / n)),
                100 * (1 - std::pow(tp, 1 / n)));

    // ---- chip-level area optimization via the DSE engine -----------
    std::printf("\n=== Area-optimal deployment (AlexNet, DSE) ===\n");
    Model net = makeAlexNet();
    dse::DseOptions opt;
    opt.threads = 8;
    opt.strategy = dse::StrategyKind::Exhaustive;
    dse::DseEngine engine(opt);
    dse::DseResult r = engine.explore(dse::defaultSpace(), net);
    const dse::DsePoint *fast = r.archive.bestLatency();
    if (fast) {
        // Smallest chip within 25% of the best achievable latency.
        const dse::DsePoint *lean =
            r.archive.bestUnderLatency(1.25 * fast->latencyCycles, 1);
        std::printf("fastest: %dx%d, %lld KB -> %.0f cycles, "
                    "%.2f mm2\n",
                    fast->hw.rows, fast->hw.cols,
                    (long long)fast->hw.l1Kb, fast->latencyCycles,
                    fast->areaMm2);
        if (lean)
            std::printf("area-opt (<=1.25x latency): %dx%d, %lld KB "
                        "-> %.0f cycles, %.2f mm2 (%.1f%% smaller)\n",
                        lean->hw.rows, lean->hw.cols,
                        (long long)lean->hw.l1Kb, lean->latencyCycles,
                        lean->areaMm2,
                        100.0 * (1.0 - lean->areaMm2 / fast->areaMm2));
    }
    std::printf("frontier %zu points from %zu candidates (%llu "
                "layer-frontier memo hits)\n",
                r.archive.size(), r.stats.evaluated,
                (unsigned long long)r.stats.frontHits);
    // Wall time varies run to run; stdout stays deterministic.
    std::fprintf(stderr, "explore wall time: %.2fs\n",
                 r.stats.wallSeconds);

    // ---- feasibility-pruned exploration of a widened L1 sweep ------
    // Undersized L1 options cannot hold even the smallest tile of
    // AlexNet's layers; PrunedExhaustive skips them before spending
    // any evaluation budget.
    std::printf("\n=== Feasibility-pruned DSE (widened L1 sweep) "
                "===\n");
    dse::CandidateSpace wide = dse::defaultSpace();
    wide.l1KbOptions.insert(wide.l1KbOptions.begin(), {1, 2});
    dse::DseOptions popt;
    popt.threads = 8;
    popt.strategy = dse::StrategyKind::PrunedExhaustive;
    dse::DseEngine pengine(popt);
    dse::DseResult pr = pengine.explore(wide, net);
    std::printf("pruned %zu of %zu candidates (L1 below the smallest "
                "tile), evaluated %zu, frontier %zu points\n",
                pr.stats.pruned, wide.size(), pr.stats.evaluated,
                pr.archive.size());
    std::fprintf(stderr, "pruned explore wall time: %.2fs\n",
                 pr.stats.wallSeconds);

    // ---- frontier-composed schedule under a latency budget ---------
    // The dual of fig14's energy sweep: per-layer frontiers (K = 8)
    // composed for minimum energy subject to a model-level latency
    // cap — relaxing the cap monotonically buys energy back.
    std::printf("\n=== Frontier-composed schedule (AlexNet, latency "
                "budget) ===\n");
    HardwareConfig dep; // The paper's 16x16 deployment default.
    ScheduleResult scalar = scheduleModel(dep, net);
    const double l0 = double(scalar.summary.totalCycles);
    std::printf("scalar best-latency: %lld cycles, %.3f mJ\n",
                (long long)scalar.summary.totalCycles,
                scalar.summary.totalEnergyPj * 1e-9);
    // One frontier sweep serves every cap point.
    std::vector<dse::MappingFrontier> fronts =
        dse::Evaluator().mapModelFrontier(dep, net, 8);
    for (double frac : {1.0, 1.001, 1.01, 1.05}) {
        ComposeOptions co;
        co.frontierK = 8;
        co.latencyBudgetCycles = frac * l0;
        ScheduleResult comp = composeSchedule(net, fronts, co);
        std::printf("cap %6.1f%%: %lld cycles, %.3f mJ (%+.3f%% "
                    "energy), %zu swaps, %s\n", 100 * frac,
                    (long long)comp.summary.totalCycles,
                    comp.summary.totalEnergyPj * 1e-9,
                    100.0 * (comp.summary.totalEnergyPj /
                                 scalar.summary.totalEnergyPj -
                             1.0),
                    comp.compose.swaps,
                    comp.compose.feasible ? "met" : "INFEASIBLE");
    }
    return 0;
}
