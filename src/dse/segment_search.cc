#include "dse/segment_search.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "dse/cost_cache.hh"
#include "dse/strategy.hh"
#include "obs/trace.hh"
#include "sim/arch_config.hh"

namespace lego
{
namespace dse
{

namespace
{

/**
 * Column allocation for a fresh multi-stage group: every stage
 * starts at one column, then the spare columns go one at a time to
 * the stage with the highest remaining MACs-per-column — the
 * rate-balancing heuristic (the pipeline runs at the slowest
 * stage's rate). Deterministic; the annealer's resize moves refine
 * it from here.
 */
std::vector<int>
initCols(const HardwareConfig &hw, const Model &m, std::size_t first,
         std::size_t len)
{
    std::vector<int> cols(len, 1);
    std::vector<double> macs(len);
    for (std::size_t i = 0; i < len; ++i)
        macs[i] = double(m.layers[first + i].macs());
    for (int spare = hw.cols - int(len); spare > 0; --spare) {
        std::size_t pick = 0;
        double best = -1;
        for (std::size_t i = 0; i < len; ++i) {
            const double rate = macs[i] / double(cols[i]);
            if (rate > best) {
                best = rate;
                pick = i;
            }
        }
        ++cols[pick];
    }
    return cols;
}

/** One group of the per-run segmentation state. */
struct Group
{
    std::size_t start = 0; //!< Offset inside the run.
    std::size_t len = 1;
    std::vector<int> cols; //!< Per member; empty for singletons.
};

/** Orders groups by (start, len, cols): the run memo's key. */
struct GroupLess
{
    bool operator()(const Group &a, const Group &b) const
    {
        return std::tie(a.start, a.len, a.cols) <
               std::tie(b.start, b.len, b.cols);
    }
};

/** Cost of one pipelined group. */
struct GroupEval
{
    bool feasible = true;
    Int cycles = 0;
    double energyPj = 0;
    Segment seg;
};

class RunAnnealer
{
  public:
    RunAnnealer(const HardwareConfig &hw, const Model &m,
                const Evaluator &ev, const SegmentOptions &opt,
                std::size_t first, std::size_t len,
                const std::vector<MappedLayer> &serial,
                const SramPartitionTable &sram,
                const NocPartitionTable &noc,
                SegmentSearchStats *stats,
                const CancelToken *cancel)
        : hw_(hw), m_(m), ev_(ev), opt_(opt), first_(first),
          len_(len), serial_(serial), sram_(sram), noc_(noc),
          stats_(stats), cancel_(cancel),
          rng_(opt.seed ^ (0x9e3779b97f4a7c15ull * (first + 1)))
    {
        for (std::size_t i = 0; i < len_; ++i) {
            serialCycles_ += serial_[i].result.cycles;
            serialEnergy_ += serial_[i].result.energyPj;
        }
    }

    /** Anneal, then emit the run's segments (strict-domination
     *  filtered) into `plan`. */
    void run(std::vector<Segment> *out)
    {
        std::vector<Group> state(len_);
        for (std::size_t i = 0; i < len_; ++i)
            state[i] = Group{i, 1, {}};
        double obj = objective(state);
        // Best-so-far snapshot: the walk stays hot enough to wander
        // off a good state late in the schedule, so the emitted plan
        // is the best state ever visited, not wherever cooling
        // happened to stop.
        std::vector<Group> best = state;
        double bestObj = obj;

        // Temperature-accept loop as in strategy.cc's annealer:
        // early moves may take uphill steps, later ones settle. The
        // start temperature is hot enough to accept a freshly merged
        // group whose equal-ish init split costs ~25-50% over serial
        // — the resize moves then have something to improve.
        double temp = 0.35;
        for (int round = 0; round < opt_.rounds; ++round) {
            // Round boundary is the chunk: a tripped deadline stops
            // proposing and emits the best state visited so far.
            if (cancel_ && cancel_->shouldStop()) {
                cancel_->noteDegraded();
                break;
            }
            std::vector<Group> cand = propose(state);
            if (stats_)
                ++stats_->movesTried;
            if (cand.empty()) {
                temp *= 0.97;
                continue;
            }
            const double candObj = objective(cand);
            const double d = candObj - obj;
            if (d <= 0 || rng_.unit() < std::exp(-d / temp)) {
                state = std::move(cand);
                obj = candObj;
                if (obj < bestObj) {
                    best = state;
                    bestObj = obj;
                }
            }
            temp *= 0.97;
        }

        emit(best, out);
    }

  private:
    /** Serial (whole-array) cost of the group's member layers. */
    void serialCost(const Group &g, Int *cycles, double *energy) const
    {
        Int c = 0;
        double e = 0;
        for (std::size_t i = g.start; i < g.start + g.len; ++i) {
            c += serial_[i].result.cycles;
            e += serial_[i].result.energyPj;
        }
        *cycles = c;
        *energy = e;
    }

    /** Group cost normalized against its own serial execution
     *  (2.0 = break-even, < 2.0 beats serial on aggregate;
     *  infeasible pegged at the soft 2.5 penalty). */
    double groupObjective(const Group &g)
    {
        const GroupEval &ge = memoEval(g);
        if (!ge.feasible)
            return 2.5;
        Int sc = 0;
        double se = 0;
        serialCost(g, &sc, &se);
        return double(ge.cycles) / double(std::max<Int>(1, sc)) +
               ge.energyPj / std::max(1e-9, se);
    }

    /**
     * Deterministic greedy descent over single-quantum resize
     * neighbours of a multi-stage group: evaluate every legal +-q
     * column shift between adjacent stages, step to the best
     * improving neighbour, repeat until a local optimum. Freshly
     * merged groups arrive rate-balanced AND feasible when such a
     * neighbour exists, instead of asking the cooling schedule to
     * find it one lucky resize at a time. Every evaluation is
     * run-memoized, so revisits are cheap.
     */
    void polish(Group *g)
    {
        if (g->len < 2)
            return;
        const int q = std::max(1, hw_.cols / 8);
        for (int iter = 0; iter < 16; ++iter) {
            double best = groupObjective(*g);
            std::vector<int> bestCols;
            for (std::size_t s = 0; s + 1 < g->len; ++s) {
                for (int dir = 0; dir < 2; ++dir) {
                    std::vector<int> cols = g->cols;
                    int &from = cols[dir ? s + 1 : s];
                    int &to = cols[dir ? s : s + 1];
                    if (from - q < 1)
                        continue;
                    from -= q;
                    to += q;
                    Group cand = *g;
                    cand.cols = cols;
                    const double o = groupObjective(cand);
                    if (o < best) {
                        best = o;
                        bestCols = std::move(cols);
                    }
                }
            }
            if (bestCols.empty())
                return;
            g->cols = std::move(bestCols);
        }
    }

    /** Cost of a pipelined group, evaluated on first sight and read
     *  back from the run memo after that. A group's cost depends on
     *  (start, len, cols) alone, so a memo read equals a fresh
     *  evaluation and every walk stays bit-identical. */
    const GroupEval &memoEval(const Group &g)
    {
        auto it = memo_.find(g);
        if (it == memo_.end())
            it = memo_.emplace(g, evalGroup(g)).first;
        return it->second;
    }

    GroupEval evalGroup(const Group &g) const
    {
        GroupEval ge;
        if (stats_)
            ++stats_->plansEvaluated;

        std::vector<SegmentKeyId> ids;
        ids.reserve(g.len);
        for (std::size_t i = 0; i < g.len; ++i)
            ids.push_back(segmentKeyId(
                m_.layers[first_ + g.start + i], g.cols[i]));
        CostCache *cache = ev_.cache();
        SegmentRecord rec;
        bool hit = false;
        CacheKey key;
        if (cache) {
            key = makeSegmentKey(hw_, ids);
            hit = cache->lookupSegment(key, ids, &rec);
        }

        Segment seg;
        seg.first = first_ + g.start;
        seg.len = g.len;
        seg.stages.reserve(g.len);
        if (hit) {
            for (std::size_t i = 0; i < g.len; ++i) {
                SegmentStage st;
                st.layer = m_.layers[first_ + g.start + i];
                st.mapping = rec.mappings[i];
                st.result = rec.results[i];
                st.cols = g.cols[i];
                seg.stages.push_back(std::move(st));
            }
            seg.cost = rec.cost;
        } else {
            for (std::size_t i = 0; i < g.len; ++i) {
                const Layer &l = m_.layers[first_ + g.start + i];
                const HardwareConfig sub =
                    partitionConfig(hw_, g.cols[i]);
                MappedLayer ml = ev_.searchMapping(sub, l, cancel_);
                SegmentStage st;
                st.layer = l;
                st.mapping = ml.mapping;
                st.result = ml.result;
                st.cols = g.cols[i];
                seg.stages.push_back(std::move(st));
            }
            seg.cost =
                segmentPipelineCost(hw_, seg.stages, sram_, noc_);
            if (cache) {
                rec.id = ids;
                rec.mappings.clear();
                rec.results.clear();
                for (const SegmentStage &st : seg.stages) {
                    rec.mappings.push_back(st.mapping);
                    rec.results.push_back(st.result);
                }
                rec.cost = seg.cost;
                // Per-stage mappings may be truncated under a
                // tripped token; keep them out of the persistent
                // memo so later deadline-free searches stay exact.
                if (!(cancel_ && cancel_->shouldStop()))
                    cache->insertSegment(key, rec);
            }
        }
        if (!seg.cost.feasible && stats_)
            ++stats_->infeasible;
        ge.feasible = seg.cost.feasible;
        ge.cycles = seg.cost.cycles;
        ge.energyPj = seg.cost.energyPj;
        ge.seg = std::move(seg);
        return ge;
    }

    /** Normalized state objective: latency share + energy share of
     *  the serial baseline (lower is better; 2.0 = break-even). */
    double objective(const std::vector<Group> &state)
    {
        Int cycles = 0;
        double energy = 0;
        for (const Group &g : state) {
            if (g.len == 1) {
                cycles += serial_[g.start].result.cycles;
                energy += serial_[g.start].result.energyPj;
                continue;
            }
            const GroupEval &ge = memoEval(g);
            if (!ge.feasible) {
                // Soft penalty, not a hard wall: an infeasible group
                // costs its serial execution plus 25%. The walk can
                // then cross infeasible territory — a freshly merged
                // equal-split group often overflows its L1 shares
                // while a one-resize neighbour is feasible AND
                // dominating — and emit() still never accepts an
                // infeasible (or non-dominating) segment.
                Int sc = 0;
                double se = 0;
                serialCost(g, &sc, &se);
                cycles += sc + sc / 4;
                energy += se * 1.25;
                continue;
            }
            cycles += ge.cycles;
            energy += ge.energyPj;
        }
        return double(cycles) / double(std::max<Int>(1, serialCycles_)) +
               energy / std::max(1e-9, serialEnergy_);
    }

    /** Propose a mutated state; empty when the chosen move has no
     *  legal candidate (the caller still advances temperature). */
    std::vector<Group> propose(std::vector<Group> state)
    {
        const std::uint64_t kind = rng_.next() % 3;
        if (kind == 0) {
            // Merge two adjacent groups.
            std::vector<std::size_t> cand;
            for (std::size_t b = 0; b + 1 < state.size(); ++b)
                if (state[b].len + state[b + 1].len <=
                    std::size_t(opt_.maxStages))
                    cand.push_back(b);
            if (cand.empty())
                return {};
            const std::size_t b =
                cand[rng_.below(cand.size())];
            Group merged;
            merged.start = state[b].start;
            merged.len = state[b].len + state[b + 1].len;
            merged.cols = initCols(hw_, m_, first_ + merged.start,
                                   merged.len);
            polish(&merged);
            state.erase(state.begin() + long(b + 1));
            state[b] = std::move(merged);
            return state;
        }
        if (kind == 1) {
            // Split a multi-layer group.
            std::vector<std::size_t> cand;
            for (std::size_t i = 0; i < state.size(); ++i)
                if (state[i].len >= 2)
                    cand.push_back(i);
            if (cand.empty())
                return {};
            const std::size_t gi = cand[rng_.below(cand.size())];
            const Group g = state[gi];
            const std::size_t cut =
                1 + std::size_t(rng_.below(g.len - 1));
            Group left{g.start, cut, {}};
            Group right{g.start + cut, g.len - cut, {}};
            if (left.len >= 2) {
                left.cols =
                    initCols(hw_, m_, first_ + left.start, left.len);
                polish(&left);
            }
            if (right.len >= 2) {
                right.cols = initCols(hw_, m_, first_ + right.start,
                                      right.len);
                polish(&right);
            }
            state[gi] = std::move(left);
            state.insert(state.begin() + long(gi + 1),
                         std::move(right));
            return state;
        }
        // Resize: shift a column quantum between adjacent stages of
        // a pipelined group.
        std::vector<std::size_t> cand;
        for (std::size_t i = 0; i < state.size(); ++i)
            if (state[i].len >= 2)
                cand.push_back(i);
        if (cand.empty())
            return {};
        const std::size_t gi = cand[rng_.below(cand.size())];
        Group &g = state[gi];
        const int q = std::max(1, hw_.cols / 8);
        const std::size_t s = rng_.below(g.len - 1);
        const bool leftToRight = rng_.next() & 1;
        int &from = g.cols[leftToRight ? s : s + 1];
        int &to = g.cols[leftToRight ? s + 1 : s];
        if (from - q < 1)
            return {};
        from -= q;
        to += q;
        return state;
    }

    /** Convert the final state into plan segments. A pipelined group
     *  survives only when strictly dominating its serial execution
     *  on BOTH axes; everything else decomposes to singletons. */
    void emit(const std::vector<Group> &state, std::vector<Segment> *out)
    {
        for (const Group &g : state) {
            if (g.len >= 2) {
                const GroupEval &ge = memoEval(g);
                Int serialCycles = 0;
                double serialEnergy = 0;
                serialCost(g, &serialCycles, &serialEnergy);
                if (ge.feasible && ge.cycles < serialCycles &&
                    ge.energyPj < serialEnergy) {
                    if (stats_)
                        ++stats_->accepted;
                    out->push_back(ge.seg);
                    continue;
                }
            }
            for (std::size_t i = 0; i < g.len; ++i) {
                Segment s;
                s.first = first_ + g.start + i;
                s.len = 1;
                out->push_back(std::move(s));
            }
        }
    }

    const HardwareConfig &hw_;
    const Model &m_;
    const Evaluator &ev_;
    const SegmentOptions &opt_;
    std::size_t first_, len_;
    const std::vector<MappedLayer> &serial_;
    const SramPartitionTable &sram_;
    const NocPartitionTable &noc_;
    SegmentSearchStats *stats_;
    const CancelToken *cancel_;
    SplitMix64 rng_;
    Int serialCycles_ = 0;      //!< Serial cost of the whole run.
    double serialEnergy_ = 0;
    std::map<Group, GroupEval, GroupLess> memo_; //!< Pipelined groups.
};

} // namespace

SegmentPlan
searchSegments(const HardwareConfig &hw, const Model &m,
               const Evaluator &ev, const SegmentOptions &opt,
               SegmentSearchStats *stats, const CancelToken *cancel)
{
    LEGO_TRACE_SPAN_ARG("dse.segment.search", "dse", "layers",
                        m.layers.size());
    if (!opt.enable)
        return singletonPlan(m);

    const auto runs = chainRuns(m);
    if (stats)
        stats->chainRuns += runs.size();
    if (runs.empty())
        return singletonPlan(m);

    // Serial per-layer baselines (whole-array scalar-best — the
    // layer-valued schedule's decisions; cache-memoized).
    std::vector<MappedLayer> serial(m.layers.size());
    for (std::size_t i = 0; i < m.layers.size(); ++i)
        if (m.layers[i].isTensorOp())
            serial[i] = ev.searchMapping(hw, m.layers[i], cancel);

    // Partition tables are per (hw) — built once per search, shared
    // by every candidate costing (the satellite plumbing).
    const int banks = std::max(4, hw.rows + hw.cols);
    NocSpec fabric;
    fabric.kind = NocKind::Butterfly;
    fabric.endpointsX = banks;
    fabric.endpointsY = 1;
    fabric.freqGhz = hw.freqGhz;
    const NocPartitionTable noc(fabric, hw.cols);
    const SramPartitionTable sram(hw.l1Kb, hw.cols);

    SegmentPlan plan;
    std::size_t next = 0;
    for (const auto &run : runs) {
        for (; next < run.first; ++next)
            plan.segments.push_back(Segment{next, 1, {}, {}});
        // Serial baselines of the run, offset-indexed.
        std::vector<MappedLayer> runSerial(
            serial.begin() + long(run.first),
            serial.begin() + long(run.first + run.second));
        RunAnnealer annealer(hw, m, ev, opt, run.first, run.second,
                             runSerial, sram, noc, stats, cancel);
        annealer.run(&plan.segments);
        next = run.first + run.second;
    }
    for (; next < m.layers.size(); ++next)
        plan.segments.push_back(Segment{next, 1, {}, {}});
    return plan;
}

} // namespace dse
} // namespace lego
