#include "dse/segment_search.hh"

#include <algorithm>
#include <map>
#include <tuple>

#include "dse/cost_cache.hh"
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
 * stage's rate). Deterministic; polish() refines it from here.
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

/** One pipelined group of a chain run. */
struct Group
{
    std::size_t start = 0; //!< Offset inside the run.
    std::size_t len = 2;
    std::vector<int> cols; //!< Array columns of each member stage.
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

/** Exact segmentation of one chain run: bestSegmentation() over the
 *  run's groups, each costed once through a (start, len, cols) memo. */
class RunSearch
{
  public:
    RunSearch(const HardwareConfig &hw, const Model &m,
              const Evaluator &ev, const SegmentOptions &opt,
              std::size_t first, std::size_t len,
              const std::vector<MappedLayer> &serial,
              const SramPartitionTable &sram,
              const NocPartitionTable &noc, SegmentSearchStats *stats,
              const CancelToken *cancel)
        : hw_(hw), m_(m), ev_(ev), opt_(opt), first_(first),
          len_(len), serial_(serial), sram_(sram), noc_(noc),
          stats_(stats), cancel_(cancel)
    {
        for (std::size_t i = 0; i < len_; ++i) {
            serialCycles_ += serial_[i].result.cycles;
            serialEnergy_ += serial_[i].result.energyPj;
        }
    }

    /** Search the run, then emit its segments into `out`. */
    void run(std::vector<Segment> *out)
    {
        std::vector<double> singles(len_);
        for (std::size_t i = 0; i < len_; ++i)
            singles[i] = normalized(serial_[i].result.cycles,
                                    serial_[i].result.energyPj);
        // Qualifying groups by (start, len), pointing into the memo.
        std::map<std::pair<std::size_t, std::size_t>, const GroupEval *>
            qualified;
        bool tripped = false;
        const std::vector<std::size_t> lens = bestSegmentation(
            singles, opt_.maxStages,
            [&](std::size_t start,
                std::size_t len) -> std::optional<double> {
                // A tripped token costs no further group: the rest
                // of the run extends with singletons only.
                if (!tripped && cancel_ && cancel_->shouldStop()) {
                    tripped = true;
                    cancel_->noteDegraded();
                }
                if (tripped)
                    return std::nullopt;
                Group g{start, len,
                        initCols(hw_, m_, first_ + start, len)};
                polish(&g);
                const GroupEval &ge = memoEval(g);
                Int sc = 0;
                double se = 0;
                serialCost(g, &sc, &se);
                if (!(ge.feasible && ge.cycles < sc &&
                      ge.energyPj < se))
                    return std::nullopt;
                qualified[{start, len}] = &ge;
                return normalized(ge.cycles, ge.energyPj);
            });

        std::size_t start = 0;
        for (const std::size_t len : lens) {
            if (len >= 2) {
                if (stats_)
                    ++stats_->accepted;
                out->push_back(qualified.at({start, len})->seg);
            } else {
                out->push_back(Segment{first_ + start, 1, {}, {}});
            }
            start += len;
        }
    }

  private:
    /** Cost as a share of the run's serial cycles plus its share of
     *  the run's serial energy: additive over a run's groups. */
    double normalized(Int cycles, double energy) const
    {
        return double(cycles) /
                   double(std::max<Int>(1, serialCycles_)) +
               energy / std::max(1e-9, serialEnergy_);
    }

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
     *  infeasible pegged at the soft 2.5 penalty, so polish can
     *  walk out of buffer-infeasible splits). */
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
     * improving neighbour, repeat until a local optimum. Every
     * evaluation is run-memoized, so revisits are cheap.
     */
    void polish(Group *g)
    {
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
     *  evaluation. */
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
    Int serialCycles_ = 0;      //!< Serial cost of the whole run.
    double serialEnergy_ = 0;
    std::map<Group, GroupEval, GroupLess> memo_; //!< Pipelined groups.
};

} // namespace

std::vector<std::size_t>
bestSegmentation(const std::vector<double> &singles, int maxStages,
                 const GroupCostFn &group)
{
    const std::size_t n = singles.size();
    const std::size_t maxLen = std::size_t(std::max(1, maxStages));
    // best[i]: least cost of the first i layers; last[i]: the length
    // of that prefix's last group.
    std::vector<double> best(n + 1, 0);
    std::vector<std::size_t> last(n + 1, 1);
    for (std::size_t i = 1; i <= n; ++i) {
        best[i] = best[i - 1] + singles[i - 1];
        for (std::size_t len = 2; len <= std::min(i, maxLen); ++len) {
            const std::optional<double> c = group(i - len, len);
            if (c && best[i - len] + *c < best[i]) {
                best[i] = best[i - len] + *c;
                last[i] = len;
            }
        }
    }
    std::vector<std::size_t> lens;
    for (std::size_t i = n; i > 0; i -= last[i])
        lens.push_back(last[i]);
    std::reverse(lens.begin(), lens.end());
    return lens;
}

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
        RunSearch(hw, m, ev, opt, run.first, run.second, runSerial,
                  sram, noc, stats, cancel)
            .run(&plan.segments);
        next = run.first + run.second;
    }
    for (; next < m.layers.size(); ++next)
        plan.segments.push_back(Segment{next, 1, {}, {}});
    return plan;
}

} // namespace dse
} // namespace lego
