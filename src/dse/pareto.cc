#include "dse/pareto.hh"

namespace lego
{
namespace dse
{

bool
dominates(const DsePoint &a, const DsePoint &b)
{
    return ParetoArchive::dominates(a, b);
}

std::vector<DsePoint>
ParetoArchive::sorted() const
{
    // points() already holds the (latency, energy, area, id) order —
    // the container's sort invariant IS the published order.
    return points();
}

namespace
{

template <class Less>
const DsePoint *
extreme(const std::vector<DsePoint> &pts, Less less)
{
    const DsePoint *best = nullptr;
    for (const DsePoint &p : pts)
        if (!best || less(p, *best))
            best = &p;
    return best;
}

} // namespace

const DsePoint *
ParetoArchive::bestLatency() const
{
    return extreme(points(), [](const DsePoint &a, const DsePoint &b) {
        return a.latencyCycles != b.latencyCycles
                   ? a.latencyCycles < b.latencyCycles
                   : a.id < b.id;
    });
}

const DsePoint *
ParetoArchive::bestEnergy() const
{
    return extreme(points(), [](const DsePoint &a, const DsePoint &b) {
        return a.energyPj != b.energyPj ? a.energyPj < b.energyPj
                                        : a.id < b.id;
    });
}

const DsePoint *
ParetoArchive::bestUnderLatency(double latencyBound,
                                int objective) const
{
    auto metric = [objective](const DsePoint &p) {
        switch (objective) {
          case 1: return p.areaMm2;
          case 2: return p.powerMw;
          default: return p.energyPj;
        }
    };
    const DsePoint *best = nullptr;
    for (const DsePoint &p : points()) {
        if (p.latencyCycles > latencyBound)
            continue;
        if (!best || metric(p) < metric(*best) ||
            (metric(p) == metric(*best) && p.id < best->id))
            best = &p;
    }
    return best;
}

} // namespace dse
} // namespace lego
