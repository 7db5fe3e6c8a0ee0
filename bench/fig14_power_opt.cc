/**
 * @file
 * Reproduces Fig. 14: per-pass power-saving breakdown, including
 * power gating of paths unused by the active dataflow. Paper
 * geomean: 28% total (9% reduce + 12% rewire + 5% pin + 1.4% gate).
 *
 * As in fig13, the eleven backend builds run through the DSE worker
 * pool, and the bench closes with a power-optimization search via
 * DseEngine: the lowest-energy deployment holding a latency target.
 */

#include <cmath>
#include <cstdio>

#include "kernels.hh"

using namespace lego;

int
main()
{
    std::printf("=== Fig. 14: power-saving breakdown per backend "
                "pass ===\n");
    std::printf("%-16s | %7s %7s %7s %7s | %8s (paper 28%%)\n",
                "design", "reduce", "rewire", "pin", "gate", "total");

    auto designs = fig10Designs();
    dse::WorkerPool pool(4);
    std::vector<BackendReport> reports =
        pool.parallelMap<BackendReport>(
            designs.size(),
            [&](std::size_t i) { return buildDesign(designs[i]); });

    double tp = 1, gp = 1;
    for (std::size_t i = 0; i < designs.size(); ++i) {
        const BackendReport &rep = reports[i];
        double base = rep.baseline.totalPower();
        double r = 1.0 - rep.afterReduce.totalPower() / base;
        double w = 1.0 - rep.afterRewire.totalPower() /
                             rep.afterReduce.totalPower();
        double p = 1.0 - rep.afterPinReuse.totalPower() /
                             rep.afterRewire.totalPower();
        double g = 1.0 - rep.final.totalPower() /
                             rep.afterPinReuse.totalPower();
        double t = 1.0 - rep.final.totalPower() / base;
        std::printf(
            "%-16s | %6.1f%% %6.1f%% %6.1f%% %6.1f%% | %7.1f%%\n",
            designs[i].name.c_str(), 100 * r, 100 * w, 100 * p,
            100 * g, 100 * t);
        tp *= 1.0 - t;
        gp *= 1.0 - g;
    }
    double n = double(designs.size());
    std::printf("%-16s | %35s | %7.1f%%  (paper 9/12/5/1.4 -> "
                "28%%)\n", "GEOMEAN", "",
                100 * (1 - std::pow(tp, 1 / n)));
    std::printf("power gating geomean: %.1f%% (paper 1.4%%)\n",
                100 * (1 - std::pow(gp, 1 / n)));

    // ---- chip-level power optimization via the DSE engine ----------
    std::printf("\n=== Power-optimal deployment (MobileNetV2, DSE) "
                "===\n");
    Model net = makeMobileNetV2();
    dse::DseOptions opt;
    opt.threads = 8;
    opt.strategy = dse::StrategyKind::Exhaustive;
    dse::DseEngine engine(opt);
    dse::DseResult r = engine.explore(dse::defaultSpace(), net);
    const dse::DsePoint *fast = r.archive.bestLatency();
    if (fast) {
        // Lowest-energy chip within 25% of the best latency.
        const dse::DsePoint *lean =
            r.archive.bestUnderLatency(1.25 * fast->latencyCycles, 0);
        std::printf("fastest: %dx%d, %lld KB -> %.0f cycles, "
                    "%.2f mJ\n",
                    fast->hw.rows, fast->hw.cols,
                    (long long)fast->hw.l1Kb, fast->latencyCycles,
                    fast->energyPj * 1e-9);
        if (lean)
            std::printf("power-opt (<=1.25x latency): %dx%d, %lld KB "
                        "-> %.0f cycles, %.2f mJ (%.1f%% less "
                        "energy)\n",
                        lean->hw.rows, lean->hw.cols,
                        (long long)lean->hw.l1Kb, lean->latencyCycles,
                        lean->energyPj * 1e-9,
                        100.0 * (1.0 - lean->energyPj /
                                           fast->energyPj));
    }
    std::printf("frontier %zu points from %zu candidates (%llu "
                "layer-frontier memo hits)\n",
                r.archive.size(), r.stats.evaluated,
                (unsigned long long)r.stats.frontHits);
    // Wall time varies run to run; stdout stays deterministic.
    std::fprintf(stderr, "explore wall time: %.2fs\n",
                 r.stats.wallSeconds);

    // ---- genetic search vs the exhaustive frontier -----------------
    // SparseMap-style evolution over the candidate digits should get
    // close to the exhaustive power-optimal pick at a fraction of the
    // evaluation budget.
    std::printf("\n=== Genetic search vs exhaustive (same space) "
                "===\n");
    dse::DseOptions gopt;
    gopt.threads = 8;
    gopt.strategy = dse::StrategyKind::Genetic;
    gopt.seed = 0x9e57;
    gopt.samples = 32;
    gopt.rounds = 5;
    dse::DseEngine gengine(gopt);
    dse::DseResult gr = gengine.explore(dse::defaultSpace(), net);
    // Both archives are queried under the SAME latency cap (1.25x
    // the exhaustive best), so the energy gap measures strategy
    // quality at an equal constraint.
    const dse::DsePoint *xfast = r.archive.bestLatency();
    double cap = xfast ? 1.25 * xfast->latencyCycles : 0;
    const dse::DsePoint *glean =
        xfast ? gr.archive.bestUnderLatency(cap, 0) : nullptr;
    const dse::DsePoint *xlean =
        xfast ? r.archive.bestUnderLatency(cap, 0) : nullptr;
    if (glean && xlean)
        std::printf("genetic: %zu evals (exhaustive %zu) -> %.2f mJ "
                    "power-opt vs exhaustive %.2f mJ (gap %.1f%%)\n",
                    gr.stats.evaluated, r.stats.evaluated,
                    glean->energyPj * 1e-9, xlean->energyPj * 1e-9,
                    100.0 * (glean->energyPj / xlean->energyPj - 1.0));

    // ---- frontier-composed schedule under an energy budget ---------
    // Per-layer mapping frontiers (K = 8) composed end-to-end: the
    // scheduler trades a sliver of latency on hull-efficient layers
    // for model-level energy below what best-latency-per-layer can
    // ever reach — a tradeoff point that exists only because whole
    // frontiers are kept per layer.
    std::printf("\n=== Frontier-composed schedule (MobileNetV2, "
                "energy budget) ===\n");
    HardwareConfig dep; // The paper's 16x16 deployment default.
    ScheduleResult scalar = scheduleModel(dep, net);
    const double e0 = scalar.summary.totalEnergyPj;
    std::printf("scalar best-latency: %lld cycles, %.3f mJ\n",
                (long long)scalar.summary.totalCycles, e0 * 1e-9);
    // One frontier sweep serves every budget point: composition is
    // pure selection over the kept frontiers.
    std::vector<dse::MappingFrontier> fronts =
        dse::Evaluator().mapModelFrontier(dep, net, 8);
    bool unreachable = false;
    for (double frac : {0.999, 0.995, 0.99}) {
        ComposeOptions co;
        co.frontierK = 8;
        co.energyBudgetPj = frac * e0;
        ScheduleResult comp = composeSchedule(net, fronts, co);
        bool hit = comp.compose.feasible &&
                   comp.summary.totalEnergyPj < e0;
        unreachable = unreachable || hit;
        std::printf("budget %5.1f%%: %lld cycles (+%.3f%%), %.3f mJ, "
                    "%zu swaps, %s\n", 100 * frac,
                    (long long)comp.summary.totalCycles,
                    100.0 * (double(comp.summary.totalCycles) /
                                 double(scalar.summary.totalCycles) -
                             1.0),
                    comp.summary.totalEnergyPj * 1e-9,
                    comp.compose.swaps,
                    comp.compose.feasible ? "met" : "INFEASIBLE");
    }
    std::printf("tradeoff point unreachable by per-layer "
                "scalar-best: %s\n", unreachable ? "yes" : "NO");
    return unreachable ? 0 : 1;
}
