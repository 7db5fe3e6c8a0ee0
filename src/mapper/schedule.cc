#include "mapper/schedule.hh"

#include <algorithm>

#include "dse/evaluator.hh"

namespace lego
{

// There is exactly ONE mapping-search implementation:
// dse::Evaluator (frontier-valued bound-pruned sweep, layer-class
// deduplication, spatial-efficiency memoization, optional cost
// cache). Both historical entry points are thin clients of it, and
// the scheduler composes per-layer frontiers under a model budget.

MappedLayer
mapLayer(const HardwareConfig &hw, const Layer &l)
{
    return dse::Evaluator().searchMapping(hw, l);
}

ScheduleResult
scheduleModel(const HardwareConfig &hw, const Model &m)
{
    return scheduleModel(hw, m, ComposeOptions{});
}

ScheduleResult
scheduleModel(const HardwareConfig &hw, const Model &m,
              const ComposeOptions &opt)
{
    dse::Evaluator ev;
    return composeSchedule(
        m, ev.mapModelFrontier(hw, m, opt.frontierK), opt);
}

namespace
{

/**
 * Indices into a frontier's point list forming the lower convex hull
 * of its (cycles, energy) curve, in ascending-cycles order. Frontier
 * points are strictly increasing in cycles and strictly decreasing
 * in energy (non-dominated + tie-deduped), so the hull starts at the
 * best-latency point and ends at the best-energy point, and the
 * marginal efficiency (energy saved per cycle added) of consecutive
 * hull steps is strictly decreasing — the property the greedy budget
 * sweep relies on for monotonicity.
 */
std::vector<std::size_t>
lowerHull(const std::vector<dse::FrontierPoint> &pts)
{
    std::vector<std::size_t> hull;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        auto x = [&](std::size_t j) {
            return double(pts[j].result.cycles);
        };
        auto y = [&](std::size_t j) { return pts[j].result.energyPj; };
        while (hull.size() >= 2) {
            std::size_t o = hull[hull.size() - 2];
            std::size_t a = hull[hull.size() - 1];
            double cross = (x(a) - x(o)) * (y(i) - y(o)) -
                           (y(a) - y(o)) * (x(i) - x(o));
            // <= 0: point a is on or above the o->i chord, so it is
            // not a hull vertex (collinear points are dropped, which
            // keeps step efficiencies strictly decreasing).
            if (cross > 0)
                break;
            hull.pop_back();
        }
        hull.push_back(i);
    }
    return hull;
}

/** One swap along a layer's hull: hull index from -> from+1. */
struct HullStep
{
    std::size_t layer = 0;
    std::size_t from = 0;    //!< Hull position before the step.
    double deltaCycles = 0;  //!< Total-latency increase (> 0).
    double deltaEnergyPj = 0;//!< Total-energy decrease (> 0).

    /** Energy saved per cycle added. */
    double efficiency() const { return deltaEnergyPj / deltaCycles; }
};

} // namespace

ScheduleResult
composeSchedule(const Model &m,
                std::vector<dse::MappingFrontier> fronts,
                const ComposeOptions &opt)
{
    if (fronts.size() != m.layers.size())
        panic("composeSchedule: frontier count does not match layer "
              "count");

    ScheduleResult out;
    const bool energyMode = opt.energyBudgetPj > 0;
    const bool latencyMode = !energyMode && opt.latencyBudgetCycles > 0;
    out.compose.budgeted = energyMode || latencyMode;

    if (!out.compose.budgeted) {
        // Unbudgeted fast path: every layer keeps its best-latency
        // point and no hull/step machinery is needed. The DSE's
        // Evaluator::evaluate sums explore() candidates with this
        // same accumulate sequence (layer order); keep them in step.
        out.perLayer.reserve(m.layers.size());
        for (std::size_t i = 0; i < m.layers.size(); ++i) {
            if (fronts[i].empty())
                panic("composeSchedule: empty frontier for layer " +
                      m.layers[i].name);
            out.compose.frontierPoints += fronts[i].size();
            const Layer &l = m.layers[i];
            MappedLayer ml;
            ml.mapping = fronts[i].best().mapping;
            ml.result = fronts[i].best().result;
            accumulate(out.summary, ml.result, l.isTensorOp(),
                       l.repeat);
            out.perLayer.push_back(ml);
        }
        out.perLayerFrontier = std::move(fronts);
        return out;
    }

    // Per-layer hulls plus the unconstrained extreme selection:
    // best-latency (hull front) for the energy-budget mode,
    // best-energy (hull back) under a latency budget.
    std::vector<std::vector<std::size_t>> hulls(fronts.size());
    std::vector<std::size_t> pick(fronts.size(), 0); //!< Hull position.
    double totalCycles = 0, totalEnergy = 0;
    std::vector<HullStep> steps;
    for (std::size_t i = 0; i < fronts.size(); ++i) {
        if (fronts[i].empty())
            panic("composeSchedule: empty frontier for layer " +
                  m.layers[i].name);
        out.compose.frontierPoints += fronts[i].size();
        hulls[i] = lowerHull(fronts[i].points());
        pick[i] = latencyMode ? hulls[i].size() - 1 : 0;
        const double rep = double(m.layers[i].repeat);
        const dse::FrontierPoint &sel =
            fronts[i].points()[hulls[i][pick[i]]];
        totalCycles += rep * double(sel.result.cycles);
        totalEnergy += rep * sel.result.energyPj;
        for (std::size_t h = 0; h + 1 < hulls[i].size(); ++h) {
            const dse::FrontierPoint &a = fronts[i].points()[hulls[i][h]];
            const dse::FrontierPoint &b =
                fronts[i].points()[hulls[i][h + 1]];
            HullStep s;
            s.layer = i;
            s.from = h;
            s.deltaCycles =
                rep * double(b.result.cycles - a.result.cycles);
            s.deltaEnergyPj = rep * (a.result.energyPj - b.result.energyPj);
            steps.push_back(s);
        }
    }

    if (energyMode && totalEnergy > opt.energyBudgetPj) {
        // Greedy down the pooled steps by marginal efficiency. Within
        // a layer efficiencies strictly decrease along the hull, so
        // the global order respects per-layer step order, and a
        // tighter budget applies a strict superset of a looser
        // budget's steps (latency monotone in the budget).
        std::sort(steps.begin(), steps.end(),
                  [](const HullStep &a, const HullStep &b) {
                      if (a.efficiency() != b.efficiency())
                          return a.efficiency() > b.efficiency();
                      if (a.layer != b.layer)
                          return a.layer < b.layer;
                      return a.from < b.from;
                  });
        for (const HullStep &s : steps) {
            if (totalEnergy <= opt.energyBudgetPj)
                break;
            pick[s.layer] = s.from + 1;
            totalCycles += s.deltaCycles;
            totalEnergy -= s.deltaEnergyPj;
            ++out.compose.swaps;
        }
        out.compose.feasible = totalEnergy <= opt.energyBudgetPj;
    } else if (latencyMode && totalCycles > opt.latencyBudgetCycles) {
        // Mirror image: walk hulls backwards, cheapest energy per
        // cycle saved first (= lowest forward efficiency first).
        std::sort(steps.begin(), steps.end(),
                  [](const HullStep &a, const HullStep &b) {
                      if (a.efficiency() != b.efficiency())
                          return a.efficiency() < b.efficiency();
                      if (a.layer != b.layer)
                          return a.layer < b.layer;
                      return a.from > b.from;
                  });
        for (const HullStep &s : steps) {
            if (totalCycles <= opt.latencyBudgetCycles)
                break;
            pick[s.layer] = s.from;
            totalCycles -= s.deltaCycles;
            totalEnergy += s.deltaEnergyPj;
            ++out.compose.swaps;
        }
        out.compose.feasible = totalCycles <= opt.latencyBudgetCycles;
    }

    // Ordered reduction: aggregate in layer order regardless of how
    // the frontiers were produced.
    out.perLayer.reserve(m.layers.size());
    for (std::size_t i = 0; i < m.layers.size(); ++i) {
        const Layer &l = m.layers[i];
        const dse::FrontierPoint &sel =
            fronts[i].points()[hulls[i][pick[i]]];
        MappedLayer ml;
        ml.mapping = sel.mapping;
        ml.result = sel.result;
        accumulate(out.summary, ml.result, l.isTensorOp(), l.repeat);
        out.perLayer.push_back(ml);
    }
    out.perLayerFrontier = std::move(fronts);
    return out;
}

bool
sameSchedule(const ScheduleResult &a, const ScheduleResult &b)
{
    if (a.perLayer.size() != b.perLayer.size())
        return false;
    if (a.summary.totalCycles != b.summary.totalCycles ||
        a.summary.totalEnergyPj != b.summary.totalEnergyPj ||
        a.summary.dramBytes != b.summary.dramBytes)
        return false;
    for (std::size_t i = 0; i < a.perLayer.size(); ++i) {
        const MappedLayer &x = a.perLayer[i], &y = b.perLayer[i];
        if (x.mapping.dataflow != y.mapping.dataflow ||
            x.mapping.tm != y.mapping.tm ||
            x.mapping.tn != y.mapping.tn ||
            x.mapping.tk != y.mapping.tk ||
            x.result.cycles != y.result.cycles ||
            x.result.energyPj != y.result.energyPj ||
            x.result.utilization != y.result.utilization ||
            x.result.dramBytes != y.result.dramBytes)
            return false;
    }
    return true;
}

std::vector<ScheduleResult>
composeZoo(const std::vector<const Model *> &zoo,
           std::vector<std::vector<dse::MappingFrontier>> fronts,
           const ComposeOptions &opt)
{
    if (fronts.size() != zoo.size())
        panic("composeZoo: frontier-set count does not match zoo "
              "size");
    std::vector<ScheduleResult> out;
    out.reserve(zoo.size());
    for (std::size_t mi = 0; mi < zoo.size(); ++mi)
        out.push_back(
            composeSchedule(*zoo[mi], std::move(fronts[mi]), opt));
    return out;
}

} // namespace lego
