/**
 * @file
 * Reusable Pareto-frontier container plus the two instantiations the
 * DSE stack is built on:
 *
 *  - `ParetoFront<T, Traits>` — a bounded, deterministic archive of
 *    mutually non-dominated points. Traits supply the objective
 *    vector (minimized) and a strict tie order; the container keeps
 *    its points sorted by (objectives..., tie) at all times, dedupes
 *    objective-space ties through the tie order (NOT insertion
 *    order), and, when a capacity K is set, retains the first K
 *    points of that sorted order. UNBOUNDED (capacity 0), the kept
 *    set is a pure function of the inserted point set — independent
 *    of insertion order and of how many workers produced the
 *    insertions. BOUNDED, the capacity trim is permanent, so the
 *    kept set is a deterministic function of the insertion
 *    *sequence*; it equals the sorted K-prefix of the full
 *    non-dominated set whenever insertions arrive in ascending
 *    objective-0 order (then no insertion can dominate a
 *    strictly-better kept point, so a trimmed point can never be
 *    needed again) — the order both mapping-sweep paths use.
 *  - `ParetoArchive` — the hardware archive over (latency, energy,
 *    area), unbounded, tie-broken by candidate id.
 *  - `MappingFrontier` — a per-layer mapping frontier over (cycles,
 *    energy), bounded to K points, tie-broken by utilization (higher
 *    first) then canonical sweep ordinal; its best point is exactly
 *    the scalar mapping search's answer (see dse/evaluator.hh).
 */

#ifndef LEGO_DSE_PARETO_HH
#define LEGO_DSE_PARETO_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/energy.hh"

namespace lego
{
namespace dse
{

/**
 * Bounded deterministic Pareto frontier. Traits must provide:
 *
 *   static constexpr std::size_t kObjectives;
 *   static double objective(const T &p, std::size_t i);  // minimized
 *   static bool tieBefore(const T &a, const T &b);       // strict
 *
 * `tieBefore` orders points whose objective vectors are equal; the
 * winner of such a tie is kept regardless of which arrived first.
 */
template <class T, class Traits>
class ParetoFront
{
  public:
    /** capacity == 0 means unbounded. */
    explicit ParetoFront(std::size_t capacity = 0)
        : capacity_(capacity)
    {}

    /** a dominates b: no worse everywhere, strictly better once. */
    static bool dominates(const T &a, const T &b)
    {
        bool strict = false;
        for (std::size_t i = 0; i < Traits::kObjectives; ++i) {
            double oa = Traits::objective(a, i);
            double ob = Traits::objective(b, i);
            if (oa > ob)
                return false;
            if (oa < ob)
                strict = true;
        }
        return strict;
    }

    /** THE total order of kept points: objectives, then tie. */
    static bool before(const T &a, const T &b)
    {
        for (std::size_t i = 0; i < Traits::kObjectives; ++i) {
            double oa = Traits::objective(a, i);
            double ob = Traits::objective(b, i);
            if (oa != ob)
                return oa < ob;
        }
        return Traits::tieBefore(a, b);
    }

    /**
     * Try to add a point. Returns false when a kept point dominates
     * it, when it loses an exact objective-space tie, or when it
     * falls past the capacity cut; otherwise prunes every point it
     * dominates (or the tie it wins), keeps it in sorted position,
     * and trims the sorted tail back to the capacity.
     */
    bool insert(const T &p)
    {
        for (std::size_t i = 0; i < points_.size(); ++i) {
            const T &q = points_[i];
            bool allEqual = true;
            for (std::size_t o = 0; o < Traits::kObjectives; ++o)
                if (Traits::objective(p, o) != Traits::objective(q, o)) {
                    allEqual = false;
                    break;
                }
            if (allEqual) {
                // Objective-space tie: the tie order decides, not
                // insertion order, so the kept point is the same for
                // any arrival interleaving.
                if (Traits::tieBefore(p, q)) {
                    points_[i] = p;
                    return true;
                }
                return false;
            }
            if (dominates(q, p))
                return false;
        }
        points_.erase(std::remove_if(points_.begin(), points_.end(),
                                     [&](const T &q) {
                                         return dominates(p, q);
                                     }),
                      points_.end());
        auto at = std::lower_bound(points_.begin(), points_.end(), p,
                                   &ParetoFront::before);
        std::size_t idx = std::size_t(at - points_.begin());
        points_.insert(at, p);
        if (capacity_ && points_.size() > capacity_) {
            points_.pop_back();
            return idx < capacity_;
        }
        return true;
    }

    /** Kept points in (objectives..., tie) order. */
    const std::vector<T> &points() const { return points_; }

    std::size_t size() const { return points_.size(); }
    bool empty() const { return points_.empty(); }
    std::size_t capacity() const { return capacity_; }
    bool atCapacity() const
    {
        return capacity_ != 0 && points_.size() >= capacity_;
    }

    /** First point of the sorted order (lowest objective 0). */
    const T &best() const { return points_.front(); }
    /** Last point of the sorted order (highest objective 0 kept). */
    const T &worst() const { return points_.back(); }

  private:
    std::size_t capacity_;
    std::vector<T> points_;
};

/** One evaluated design point. */
struct DsePoint
{
    std::size_t id = 0;      //!< Candidate index in its space.
    HardwareConfig hw;       //!< Decoded configuration.
    double latencyCycles = 0;
    double energyPj = 0;
    double areaMm2 = 0;
    double powerMw = 0;      //!< Chip power roll-up (reporting only).
    RunSummary summary;      //!< Full run aggregate (reporting only).
};

/** Objective vector and tie order of the hardware archive. */
struct DsePointTraits
{
    static constexpr std::size_t kObjectives = 3;
    static double objective(const DsePoint &p, std::size_t i)
    {
        switch (i) {
          case 0: return p.latencyCycles;
          case 1: return p.energyPj;
          default: return p.areaMm2;
        }
    }
    /** Objective-equal candidates dedupe to the lowest id. */
    static bool tieBefore(const DsePoint &a, const DsePoint &b)
    {
        return a.id < b.id;
    }
};

/**
 * a dominates b iff a is no worse in every objective and strictly
 * better in at least one (minimizing latency, energy, and area).
 */
bool dominates(const DsePoint &a, const DsePoint &b);

/**
 * Hardware-candidate archive over (latency, energy, area): the
 * DsePoint instantiation of ParetoFront plus the extreme-point and
 * constrained queries the benches use. Unbounded.
 */
class ParetoArchive : public ParetoFront<DsePoint, DsePointTraits>
{
  public:
    ParetoArchive() : ParetoFront<DsePoint, DsePointTraits>(0) {}

    /** Points ordered by (latency, energy, area, id) — stable across
     *  insertion orders of the same point set. */
    std::vector<DsePoint> sorted() const;

    /** @name Extreme points (null when empty). @{ */
    const DsePoint *bestLatency() const;
    const DsePoint *bestEnergy() const;
    /** @} */

    /**
     * Cheapest point in `objective` among points whose latency is at
     * most `latencyBound` (null when none qualify). objective: 0 =
     * energy, 1 = area, 2 = power.
     */
    const DsePoint *bestUnderLatency(double latencyBound,
                                     int objective) const;
};

/**
 * One kept point of a per-layer mapping frontier: a mapping, its
 * simulated result, and the canonical sweep ordinal of the candidate
 * (dataflow-major, then tm/tn/tk) used as the deterministic
 * tie-break.
 */
struct FrontierPoint
{
    Mapping mapping;
    LayerResult result;
    std::uint64_t seq = 0;
};

/**
 * Objectives of the mapping frontier: (cycles, energy). Utilization
 * is not an objective, only the tie-break (higher first, mirroring
 * the scalar search's betterResult order), then the sweep ordinal.
 */
struct FrontierPointTraits
{
    static constexpr std::size_t kObjectives = 2;
    static double objective(const FrontierPoint &p, std::size_t i)
    {
        return i == 0 ? double(p.result.cycles) : p.result.energyPj;
    }
    static bool tieBefore(const FrontierPoint &a,
                          const FrontierPoint &b)
    {
        if (a.result.utilization != b.result.utilization)
            return a.result.utilization > b.result.utilization;
        return a.seq < b.seq;
    }
};

/**
 * Per-layer mapping Pareto frontier (latency x energy), bounded to K
 * points, kept in (cycles, energy, tie) order. At K = 1 the single
 * kept point is bit-identical to the scalar mapping search's answer.
 */
using MappingFrontier = ParetoFront<FrontierPoint, FrontierPointTraits>;

} // namespace dse
} // namespace lego

#endif // LEGO_DSE_PARETO_HH
