/**
 * @file
 * THE table of DSE counters: one LEGO_DSE_COUNTERS row per counter
 * the cost cache or the evaluator keeps. The CacheCounters,
 * EvalCounters and DseStats fields, the CounterBlock storage behind
 * CostCache, Evaluator and StatsContext, the deltas, statsFrom and
 * publishMetrics are all generated from it, so adding a counter is
 * one row plus its bump site.
 *
 * Row: X(set, owner, field, kind, metric, doc). `set` passes through
 * from LEGO_DSE_COUNTERS(X, set). `owner` is Cache (CostCache,
 * CacheCounters) or Eval (Evaluator, EvalCounters). `field` is the
 * counter's one name. `kind` is Window (monotonic, and attributed per
 * explore() call or serve request through a StatsContext, so also a
 * DseStats field), Global (monotonic, process-wide only) or Gauge (a
 * point-in-time reading: deltas carry it, DseStats samples it at
 * window close). `metric` is its obs::MetricsRegistry name, a gauge
 * for Gauge rows. tools/check_obs.py parses these rows.
 */

#ifndef LEGO_DSE_COUNTERS_HH
#define LEGO_DSE_COUNTERS_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#define LEGO_DSE_COUNTERS(X, set)                                           \
    X(set, Cache, hits, Window, "dse.cache.l1_hits",                        \
      "frontier lookups answered by L1 or the shared tier")                 \
    X(set, Cache, misses, Window, "dse.cache.l1_misses",                    \
      "frontier lookups that missed every tier")                            \
    X(set, Cache, l0Hits, Window, "dse.cache.l0_hits",                      \
      "always 0: the cache has no L0 tier; kept for perfbench to read")     \
    X(set, Cache, l0Misses, Window, "dse.cache.l0_misses",                  \
      "always 0: the cache has no L0 tier; kept for perfbench to read")     \
    X(set, Cache, frontHits, Window, "dse.cache.front_hits",                \
      "frontier lookups answered at any level, = hits")                     \
    X(set, Cache, frontMisses, Window, "dse.cache.front_misses",            \
      "frontier lookups that fell through to a full sweep, = misses")       \
    X(set, Cache, frontInserts, Global, "dse.cache.front_inserts",          \
      "frontier entries created")                                           \
    X(set, Cache, segHits, Window, "dse.cache.seg_hits",                    \
      "segment-record hits")                                                \
    X(set, Cache, segMisses, Window, "dse.cache.seg_misses",                \
      "segment-record misses")                                              \
    X(set, Cache, segInserts, Global, "dse.cache.seg_inserts",              \
      "segment entries created")                                            \
    X(set, Cache, quarantined, Global, "dse.cache.quarantined",             \
      "corrupt cache files set aside")                                      \
    X(set, Cache, evictions, Window, "dse.cache.evictions",                 \
      "L1 entries evicted by the capacity bound, all kinds")                \
    X(set, Cache, sharedFrontHits, Window, "dse.cache.shared_front_hits",   \
      "frontier hits served by the shared tier, also in frontHits")         \
    X(set, Cache, sharedSegHits, Window, "dse.cache.shared_seg_hits",       \
      "segment hits served by the shared tier, also in segHits")            \
    X(set, Cache, remaps, Global, "dse.cache.remaps",                       \
      "shared-snapshot remaps on a generation change")                      \
    X(set, Cache, residentBytes, Gauge, "dse.cache.resident_bytes",         \
      "serialized footprint of the resident L1 entries")                    \
    X(set, Cache, generation, Gauge, "dse.cache.generation",                \
      "generation of the mapped shared snapshot, 0 = none")                 \
    X(set, Eval, searches, Global, "dse.eval.searches",                     \
      "frontier sweeps run; memo hits and non-tensor layers excluded")      \
    X(set, Eval, modelEvals, Window, "dse.eval.model_evals",                \
      "runLayerWithEff calls, one per tiling a sweep scores")               \
    X(set, Eval, mappingsPruned, Window, "dse.eval.mappings_pruned",        \
      "tilings cut by the cycle bound")                                     \
    X(set, Eval, dataflowsPruned, Window, "dse.eval.dataflows_pruned",      \
      "dataflows with no tiling evaluated before the global cut")           \
    X(set, Eval, layersDeduped, Window, "dse.eval.layers_deduped",          \
      "layer instances broadcast from their class, not searched")           \
    X(set, Eval, crossModelDeduped, Window,                                 \
      "dse.eval.cross_model_deduped",                                       \
      "class shares a zoo-level table adds across models (mapZoo only)")

namespace lego
{
namespace dse
{

enum class CounterOwner { Cache, Eval };
enum class CounterKind { Window, Global, Gauge };

/** Each counter's row index: CounterId::hits, ... */
enum class CounterId : std::size_t
{
#define LEGO_DSE_ID(set, owner, field, kind, metric, doc) field,
    LEGO_DSE_COUNTERS(LEGO_DSE_ID, )
#undef LEGO_DSE_ID
};

/** One row of the table, for code that walks it at run time. */
struct CounterRow
{
    CounterId id;
    CounterOwner owner;
    CounterKind kind;
    const char *metric;
};

inline constexpr CounterRow kCounterRows[] = {
#define LEGO_DSE_ROW(set, owner, field, kind, metric, doc)                  \
    {CounterId::field, CounterOwner::owner, CounterKind::kind, metric},
    LEGO_DSE_COUNTERS(LEGO_DSE_ROW, )
#undef LEGO_DSE_ROW
};

inline constexpr std::size_t kNumCounters =
    sizeof(kCounterRows) / sizeof(kCounterRows[0]);

constexpr const CounterRow &
counterRow(CounterId c)
{
    return kCounterRows[std::size_t(c)];
}

// Row selection for the generated structs: LEGO_DSE_SEL_<set> keeps
// `x` when the row belongs to the set — Cache and Eval by owner,
// Stats (DseStats) by kind: every row but the Global ones.
#define LEGO_DSE_SEL_Cache(owner, kind, x) LEGO_DSE_IS_Cache_##owner(x)
#define LEGO_DSE_SEL_Eval(owner, kind, x) LEGO_DSE_IS_Eval_##owner(x)
#define LEGO_DSE_SEL_Stats(owner, kind, x) LEGO_DSE_IS_Stats_##kind(x)
#define LEGO_DSE_IS_Cache_Cache(x) x
#define LEGO_DSE_IS_Cache_Eval(x)
#define LEGO_DSE_IS_Eval_Cache(x)
#define LEGO_DSE_IS_Eval_Eval(x) x
#define LEGO_DSE_IS_Stats_Window(x) x
#define LEGO_DSE_IS_Stats_Global(x)
#define LEGO_DSE_IS_Stats_Gauge(x) x
#define LEGO_DSE_FIELD(set, owner, field, kind, metric, doc)                \
    LEGO_DSE_SEL_##set(owner, kind, std::uint64_t field = 0;)
#define LEGO_DSE_VISIT(set, owner, field, kind, metric, doc)                \
    LEGO_DSE_SEL_##set(owner, kind, f(CounterId::field, s.field...);)

/**
 * The generated half of a counter struct: one std::uint64_t field
 * per row of `set`, and visit(f, s...), which calls
 * f(CounterId, s.field...) for each of them over any number of
 * structs of this type (none: f(CounterId) per row).
 */
#define LEGO_DSE_COUNTER_FIELDS(set)                                        \
    LEGO_DSE_COUNTERS(LEGO_DSE_FIELD, set)                                  \
    template <class F, class... S>                                          \
    static void visit(F &&f, S &&...s)                                      \
    {                                                                       \
        LEGO_DSE_COUNTERS(LEGO_DSE_VISIT, set)                              \
    }

/** s's field of counter c (0 when S has no such field). */
template <class S>
std::uint64_t
counterValue(const S &s, CounterId c)
{
    std::uint64_t out = 0;
    S::visit([&](CounterId id, std::uint64_t v) { out = id == c ? v : out; },
             s);
    return out;
}

/** Every CostCache counter at one point in time. */
struct CacheCounters
{
    LEGO_DSE_COUNTER_FIELDS(Cache)
};

/** Every Evaluator counter at one point in time. */
struct EvalCounters
{
    LEGO_DSE_COUNTER_FIELDS(Eval)
};

/** a - b field by field, for exact per-window deltas; a Gauge
 *  carries a's reading instead, so a shrinking resident set can
 *  never wrap. */
template <class S, class = std::enable_if_t<
                       std::is_same_v<S, CacheCounters> ||
                       std::is_same_v<S, EvalCounters>>>
S
operator-(const S &a, const S &b)
{
    S d;
    S::visit(
        [](CounterId c, std::uint64_t &out, std::uint64_t x,
           std::uint64_t y) {
            out = counterRow(c).kind == CounterKind::Gauge ? x : x - y;
        },
        d, a, b);
    return d;
}

/**
 * Stats of one window (an explore() call, a serve request): every
 * Window row as attributed to the window, every Gauge row as read at
 * its close, plus the strategy's numbers and the wall time.
 */
struct DseStats
{
    std::size_t proposed = 0;  //!< Ids proposed by the strategy.
    std::size_t evaluated = 0; //!< Unique candidates actually scored.
    std::size_t pruned = 0;    //!< Skipped as infeasible (PrunedExhaustive).
    LEGO_DSE_COUNTER_FIELDS(Stats)
    double wallSeconds = 0;
};

/**
 * One atomic per table row, indexed by CounterId: the global
 * counters of a CostCache or an Evaluator, and the window counters
 * of a StatsContext. Each holder touches only its own rows; bumps
 * are relaxed.
 */
class CounterBlock
{
  public:
    std::atomic<std::uint64_t> &operator[](CounterId c)
    {
        return v_[std::size_t(c)];
    }
    std::uint64_t load(CounterId c) const
    {
        return v_[std::size_t(c)].load();
    }
    void add(CounterId c, std::uint64_t n = 1)
    {
        (*this)[c].fetch_add(n, std::memory_order_relaxed);
    }

    /** The block's values of S's fields. */
    template <class S>
    S read() const
    {
        S s;
        S::visit([&](CounterId c, std::uint64_t &v) { v = load(c); },
                 s);
        return s;
    }

  private:
    std::array<std::atomic<std::uint64_t>, kNumCounters> v_{};
};

} // namespace dse
} // namespace lego

#endif // LEGO_DSE_COUNTERS_HH
