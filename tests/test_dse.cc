/**
 * @file
 * Tests for the design-space exploration subsystem: worker-pool
 * ordering, memo-cache equivalence (cached == fresh, bit-identical),
 * Pareto-archive dominance invariants, candidate-space decoding, the
 * mapper-as-thin-client equivalence, thread-count determinism of
 * the engine (1 vs 8 workers, same seed, same frontier), and the
 * exact work of the fixed DSE sweeps (naive vs optimized identity,
 * pinned model-evaluation and frontier-sweep counts).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>

#include "lego.hh"

namespace lego
{
namespace
{

using dse::CandidateSpace;
using dse::CostCache;
using dse::DseEngine;
using dse::DseOptions;
using dse::DsePoint;
using dse::DseResult;
using dse::Evaluator;
using dse::ParetoArchive;
using dse::SplitMix64;
using dse::StrategyKind;
using dse::WorkerPool;

TEST(WorkerPool, OrderedResults)
{
    WorkerPool pool(8);
    std::vector<int> out = pool.parallelMap<int>(
        1000, [](std::size_t i) { return int(i) * int(i); });
    ASSERT_EQ(out.size(), 1000u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], int(i) * int(i));
}

TEST(WorkerPool, InlineWhenSingleThreaded)
{
    WorkerPool pool(1);
    EXPECT_EQ(pool.threads(), 1);
    std::vector<int> out =
        pool.parallelMap<int>(10, [](std::size_t i) { return int(i); });
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], int(i));
}

TEST(WorkerPool, PropagatesExceptions)
{
    WorkerPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [](std::size_t i) {
                                      if (i == 57)
                                          fatal("bad item");
                                  }),
                 FatalError);
    // The pool survives a failed job.
    std::vector<int> out =
        pool.parallelMap<int>(8, [](std::size_t i) { return int(i); });
    EXPECT_EQ(out[7], 7);
}

TEST(CostCache, CachedEqualsFresh)
{
    HardwareConfig hw;
    Layer l = conv("c", 64, 128, 28, 3);

    CostCache cache;
    Evaluator cached(&cache);
    Evaluator fresh(nullptr);

    MappedLayer a = cached.searchMapping(hw, l); // Fills the cache.
    MappedLayer b = cached.searchMapping(hw, l); // A frontier hit.
    MappedLayer c = fresh.searchMapping(hw, l);
    // The repeat search hits and sweeps nothing.
    EXPECT_EQ(cache.counters().hits, 1u);
    EXPECT_EQ(cached.counters().searches, 1u);

    // Bit-identical across cached and fresh paths.
    for (const MappedLayer *m : {&b, &c}) {
        EXPECT_EQ(a.result.cycles, m->result.cycles);
        EXPECT_EQ(a.result.energyPj, m->result.energyPj);
        EXPECT_EQ(a.result.utilization, m->result.utilization);
        EXPECT_EQ(a.result.dramBytes, m->result.dramBytes);
        EXPECT_EQ(a.mapping.dataflow, m->mapping.dataflow);
        EXPECT_EQ(a.mapping.tm, m->mapping.tm);
        EXPECT_EQ(a.mapping.tn, m->mapping.tn);
        EXPECT_EQ(a.mapping.tk, m->mapping.tk);
    }

    // And the memoized K = 1 frontier holds the winning mapping with
    // exactly the result of a direct model call.
    LayerResult direct = runLayer(hw, l, a.mapping);
    CostCache c2;
    Evaluator e2(&c2);
    ScheduleResult unused = e2.mapModel(hw, Model{"m", {l}});
    (void)unused;
    std::vector<dse::FrontierPoint> viaKey;
    ASSERT_TRUE(
        c2.lookupFrontier(dse::makeFrontierKey(hw, l, 1), &viaKey));
    ASSERT_EQ(viaKey.size(), 1u);
    EXPECT_EQ(a.mapping.tm, viaKey[0].mapping.tm);
    EXPECT_EQ(direct.cycles, viaKey[0].result.cycles);
    EXPECT_EQ(direct.energyPj, viaKey[0].result.energyPj);
}

TEST(CostCache, KeyIgnoresNameAndRepeat)
{
    HardwareConfig hw;
    Layer a = conv("stage1", 64, 64, 56, 3);
    Layer b = conv("stage9", 64, 64, 56, 3);
    b.repeat = 7;
    EXPECT_EQ(dse::makeFrontierKey(hw, a, 1),
              dse::makeFrontierKey(hw, b, 1));

    // But any shape, hardware or K change must miss.
    Layer c = conv("stage1", 64, 64, 57, 3);
    EXPECT_FALSE(dse::makeFrontierKey(hw, a, 1) ==
                 dse::makeFrontierKey(hw, c, 1));
    HardwareConfig hw2 = hw;
    hw2.l1Kb += 1;
    EXPECT_FALSE(dse::makeFrontierKey(hw, a, 1) ==
                 dse::makeFrontierKey(hw2, a, 1));
    EXPECT_FALSE(dse::makeFrontierKey(hw, a, 1) ==
                 dse::makeFrontierKey(hw, a, 2));
}

TEST(CostCache, SharedShapesHitAcrossLayers)
{
    Model m;
    m.name = "twins";
    m.layers = {conv("a", 32, 32, 28, 3), conv("b", 32, 32, 28, 3)};

    // Default policy: the second twin is never searched at all — the
    // class broadcast serves it without a single cache lookup.
    CostCache cache;
    Evaluator e(&cache);
    ScheduleResult r = e.mapModel(HardwareConfig{}, m);
    EXPECT_EQ(e.counters().layersDeduped, 1u);
    EXPECT_EQ(e.counters().searches, 1u);
    EXPECT_EQ(r.perLayer[0].result.cycles,
              r.perLayer[1].result.cycles);

    // With deduplication off the second twin re-issues the same
    // keys, and they hit.
    dse::EvalPolicy naiveDedup;
    naiveDedup.dedupLayerClasses = false;
    CostCache cache2;
    Evaluator e2(&cache2, naiveDedup);
    ScheduleResult r2 = e2.mapModel(HardwareConfig{}, m);
    EXPECT_GT(cache2.counters().hits, 0u); // Second twin fully memoized.
    EXPECT_EQ(e2.counters().searches, 1u);
    EXPECT_EQ(r2.perLayer[0].result.cycles,
              r2.perLayer[1].result.cycles);
}

TEST(Pareto, ArchiveHoldsNoDominatedPoint)
{
    ParetoArchive arch;
    SplitMix64 rng(42);
    for (int i = 0; i < 300; ++i) {
        DsePoint p;
        p.id = std::size_t(i);
        p.latencyCycles = double(1 + rng.below(50));
        p.energyPj = double(1 + rng.below(50));
        p.areaMm2 = double(1 + rng.below(50));
        arch.insert(p);
    }
    ASSERT_FALSE(arch.empty());
    for (const DsePoint &a : arch.points())
        for (const DsePoint &b : arch.points()) {
            if (&a == &b)
                continue;
            EXPECT_FALSE(dse::dominates(a, b))
                << a.id << " dominates " << b.id;
        }
}

TEST(Pareto, InsertPrunesAndRejects)
{
    ParetoArchive arch;
    DsePoint mid;
    mid.latencyCycles = 10;
    mid.energyPj = 10;
    mid.areaMm2 = 10;
    EXPECT_TRUE(arch.insert(mid));

    DsePoint worse = mid;
    worse.id = 1;
    worse.energyPj = 11;
    EXPECT_FALSE(arch.insert(worse)); // Dominated.
    DsePoint dup = mid;
    dup.id = 2;
    EXPECT_FALSE(arch.insert(dup)); // Objective-space duplicate.

    DsePoint better = mid;
    better.id = 3;
    better.latencyCycles = 9;
    EXPECT_TRUE(arch.insert(better)); // Dominates mid -> prunes it.
    ASSERT_EQ(arch.size(), 1u);
    EXPECT_EQ(arch.points()[0].id, 3u);

    DsePoint tradeoff;
    tradeoff.id = 4;
    tradeoff.latencyCycles = 20;
    tradeoff.energyPj = 1;
    tradeoff.areaMm2 = 20;
    EXPECT_TRUE(arch.insert(tradeoff)); // Non-dominated corner.
    EXPECT_EQ(arch.size(), 2u);
    EXPECT_EQ(arch.bestLatency()->id, 3u);
    EXPECT_EQ(arch.bestEnergy()->id, 4u);
}

/**
 * Objective-space ties dedupe through the tie order (lowest id), not
 * through insertion order: both arrival interleavings keep the same
 * point, so archives built by different worker schedules agree.
 */
TEST(Pareto, TieDedupeDeterministicAcrossOrders)
{
    DsePoint low, high;
    low.id = 3;
    high.id = 9;
    low.latencyCycles = high.latencyCycles = 10;
    low.energyPj = high.energyPj = 20;
    low.areaMm2 = high.areaMm2 = 30;

    ParetoArchive a;
    EXPECT_TRUE(a.insert(low));
    EXPECT_FALSE(a.insert(high)); // Loses the tie: id 9 > 3.
    ASSERT_EQ(a.size(), 1u);
    EXPECT_EQ(a.points()[0].id, 3u);

    ParetoArchive b;
    EXPECT_TRUE(b.insert(high));
    EXPECT_TRUE(b.insert(low)); // Wins the tie despite arriving late.
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b.points()[0].id, 3u);
}

/** The batched bound equals the scalar bound element for element. */
TEST(Perf, BatchBoundsMatchScalar)
{
    HardwareConfig hw;
    hw.dataflows = {DataflowTag::MN, DataflowTag::ICOC,
                    DataflowTag::OHOW, DataflowTag::KHOH};
    for (const Layer &l :
         {conv("c", 64, 128, 28, 3), conv("s", 32, 64, 56, 1, 2),
          linear("fc", 64, 512, 1000), matmul("mm", 256, 64, 256),
          dwconv("dw", 96, 56, 3),
          linear("amortized", 32, 4096, 11008, 1, true)}) {
        std::vector<Mapping> cands = dse::mappingCandidates(hw, l);
        for (DataflowTag df : hw.dataflows) {
            std::vector<Mapping> mine;
            for (const Mapping &map : cands)
                if (map.dataflow == df)
                    mine.push_back(map);
            if (mine.empty())
                continue;
            double se = spatialEfficiency(hw, l, df);
            std::vector<Int> batch(mine.size());
            mappingCyclesBatch(hw, l, mine.data(), mine.size(), se,
                               batch.data());
            for (std::size_t i = 0; i < mine.size(); ++i)
                EXPECT_EQ(batch[i],
                          mappingCycles(hw, l, mine[i], se))
                    << l.name << " candidate " << i;
        }
    }
}

TEST(CandidateSpace, DecodeCoversAndNeighborClamps)
{
    CandidateSpace s = dse::defaultSpace();
    ASSERT_EQ(s.size(), s.arrays.size() * s.l1KbOptions.size() *
                            s.ppuOptions.size() *
                            s.dataflowSets.size());
    // Every id decodes, and the first axis varies fastest.
    HardwareConfig h0 = s.decode(0), h1 = s.decode(1);
    EXPECT_NE(h0.rows * 1000 + h0.cols, h1.rows * 1000 + h1.cols);
    // Neighbor moves stay in range at both ends of an axis.
    std::size_t lo = s.neighbor(0, 0, -5);
    std::size_t hi = s.neighbor(s.size() - 1, 0, +5);
    EXPECT_LT(lo, s.size());
    EXPECT_LT(hi, s.size());
    // A +1/-1 round trip returns home away from the boundary.
    std::size_t mid = s.size() / 2;
    EXPECT_EQ(s.neighbor(s.neighbor(mid, 1, 1), 1, -1), mid);
}

TEST(CandidateSpace, NeighborReflectsAtEdges)
{
    CandidateSpace s = dse::defaultSpace();
    // Candidate 0 sits at the all-zeros corner: every -1 move used to
    // clamp back onto the parent and be discarded by the engine's
    // dedupe. It must now reflect to digit 1 on the moved axis.
    const std::size_t home = 0;
    for (std::size_t axis = 0; axis < CandidateSpace::kAxes; ++axis) {
        std::size_t down = s.neighbor(home, axis, -1);
        EXPECT_NE(down, home);
        std::size_t d[CandidateSpace::kAxes];
        s.decodeDigits(down, d);
        for (std::size_t a = 0; a < CandidateSpace::kAxes; ++a)
            EXPECT_EQ(d[a], a == axis ? 1u : 0u) << "axis " << axis;
    }
    // Same at the top corner, stepping up.
    std::size_t top = s.size() - 1;
    EXPECT_NE(s.neighbor(top, 0, +1), top);
    EXPECT_LT(s.neighbor(top, 0, +1), s.size());
    // Oversized deltas stay in range and still move.
    EXPECT_NE(s.neighbor(home, 0, -100), home);
    EXPECT_LT(s.neighbor(home, 0, -100), s.size());
    // A delta equal to the reflection period would land back home;
    // the move must still produce a fresh id.
    int period = 2 * (int(s.arrays.size()) - 1);
    EXPECT_NE(s.neighbor(home, 0, period), home);
    // Only a single-option axis may hand back the parent's own id.
    CandidateSpace one = s;
    one.ppuOptions = {8};
    EXPECT_EQ(one.neighbor(0, 2, +1), 0u);
    EXPECT_EQ(one.neighbor(0, 2, -3), 0u);
}

TEST(CostCache, DataflowPackingCannotCollide)
{
    Layer l = conv("c", 8, 8, 8, 3);
    // 16 tags pack losslessly: sets differing only in the *first*
    // (oldest-packed) tag must key differently — this is the entry
    // the old unchecked shift pushed out of the 64-bit word.
    HardwareConfig a, b;
    a.dataflows.assign(16, DataflowTag::MN);
    b.dataflows = a.dataflows;
    b.dataflows[0] = DataflowTag::ICOC;
    EXPECT_FALSE(dse::makeFrontierKey(a, l, 1) ==
                 dse::makeFrontierKey(b, l, 1));
    // A 17th tag cannot be packed; keying such a config would shift
    // the first tag out and alias distinct configs, so it panics.
    HardwareConfig c = a;
    c.dataflows.push_back(DataflowTag::OHOW);
    EXPECT_THROW(dse::makeFrontierKey(c, l, 1), PanicError);
}

TEST(Evaluator, FitsL1ScalesWithDataBits)
{
    // A 16x16x16 tile: 512 operand elements, 768 partial-sum bytes.
    // Double-buffered that is 2560 bytes at 8-bit operands and 3584
    // at 16-bit, so a 3 KB L1 separates the two widths.
    HardwareConfig hw;
    hw.l1Kb = 3;
    EXPECT_TRUE(dse::fitsL1(hw, 16, 16, 16));
    hw.dataBits = 16;
    EXPECT_FALSE(dse::fitsL1(hw, 16, 16, 16));

    // Wider datapaths therefore admit fewer tilings of a layer.
    HardwareConfig h8, h16;
    h8.l1Kb = h16.l1Kb = 48;
    h16.dataBits = 16;
    Layer l = conv("c", 64, 64, 28, 3);
    EXPECT_GT(dse::mappingCandidates(h8, l).size(),
              dse::mappingCandidates(h16, l).size());

    // The feasibility predicate shares the same rule.
    HardwareConfig tiny;
    tiny.l1Kb = 2;
    EXPECT_FALSE(dse::feasible(tiny, l));
    EXPECT_TRUE(dse::feasible(HardwareConfig{}, l));
    Layer act = ppu("relu", PpuOp::Relu, 1000);
    EXPECT_TRUE(dse::feasible(tiny, act)); // Non-tensor: always fits.
}

/** The exact-cycle bound can never disagree with the model. */
TEST(Perf, MappingCyclesMatchesModelAndFloorHolds)
{
    HardwareConfig hw;
    hw.dataflows = {DataflowTag::MN, DataflowTag::ICOC,
                    DataflowTag::OHOW, DataflowTag::KHOH};
    for (const Layer &l :
         {conv("c", 64, 128, 28, 3), conv("s", 32, 64, 56, 1, 2),
          linear("fc", 64, 512, 1000), matmul("mm", 256, 64, 256),
          dwconv("dw", 96, 56, 3)}) {
        for (DataflowTag df : hw.dataflows) {
            double se = spatialEfficiency(hw, l, df);
            Int dfFloor = cycleLowerBound(hw, l, se);
            for (const Mapping &map : dse::mappingCandidates(hw, l)) {
                if (map.dataflow != df)
                    continue;
                LayerResult r = runLayerWithEff(hw, l, map, se);
                EXPECT_EQ(mappingCycles(hw, l, map, se), r.cycles);
                EXPECT_LE(dfFloor, r.cycles);
            }
        }
    }
}

/** Bound pruning must keep mapping AND result bit-identical. */
TEST(Evaluator, PruningPreservesSelection)
{
    dse::EvalPolicy naivePolicy;
    naivePolicy.pruneMappings = false;
    naivePolicy.dedupLayerClasses = false;

    std::vector<HardwareConfig> configs(3);
    configs[0].dataflows = {DataflowTag::MN, DataflowTag::ICOC};
    configs[1].rows = 12;
    configs[1].cols = 14;
    configs[1].l1Kb = 182;
    configs[1].dataflows = {DataflowTag::KHOH, DataflowTag::MN};
    configs[2].l1Kb = 48;
    configs[2].dataBits = 16;
    configs[2].dataflows = {DataflowTag::ICOC, DataflowTag::OHOW,
                            DataflowTag::MN};

    for (const HardwareConfig &hw : configs) {
        for (const Layer &l :
             {conv("c", 64, 128, 28, 3), conv("d", 256, 256, 14, 3),
              linear("fc", 64, 512, 1000), matmul("mm", 16, 16, 16),
              dwconv("dw", 96, 56, 3)}) {
            MappedLayer naive =
                dse::Evaluator(nullptr, naivePolicy)
                    .searchMapping(hw, l);
            dse::Evaluator pruned(nullptr);
            MappedLayer fast = pruned.searchMapping(hw, l);
            EXPECT_EQ(naive.mapping.dataflow, fast.mapping.dataflow);
            EXPECT_EQ(naive.mapping.tm, fast.mapping.tm);
            EXPECT_EQ(naive.mapping.tn, fast.mapping.tn);
            EXPECT_EQ(naive.mapping.tk, fast.mapping.tk);
            EXPECT_EQ(naive.result.cycles, fast.result.cycles);
            EXPECT_EQ(naive.result.energyPj, fast.result.energyPj);
            EXPECT_EQ(naive.result.utilization,
                      fast.result.utilization);
            EXPECT_EQ(naive.result.dramBytes, fast.result.dramBytes);
        }
    }
}

/** The no-fit fallback may not report tiles beyond the problem. */
TEST(Evaluator, FallbackMappingClampsToProblem)
{
    HardwareConfig tiny;
    tiny.l1Kb = 0; // Nothing fits: every layer takes the fallback.
    Layer small = matmul("mm", 3, 5, 7);
    MappedLayer ml = dse::Evaluator().searchMapping(tiny, small);
    EXPECT_LE(ml.mapping.tm, small.gemmM());
    EXPECT_LE(ml.mapping.tn, small.gemmN());
    EXPECT_LE(ml.mapping.tk, small.gemmK());
    EXPECT_EQ(ml.mapping.tm, 3);
    EXPECT_EQ(ml.mapping.tn, 7);
    EXPECT_EQ(ml.mapping.tk, 5);

    Layer big = matmul("big", 64, 64, 64);
    MappedLayer mb = dse::Evaluator().searchMapping(tiny, big);
    EXPECT_EQ(mb.mapping.tm, 16);
    EXPECT_EQ(mb.mapping.tn, 16);
    EXPECT_EQ(mb.mapping.tk, 16);
}

/**
 * Cache statistics are exact: with the naive policy every
 * (distinct-shape) layer issues exactly one frontier lookup, so the
 * counters are fully predictable — under 1 worker and under 8.
 */
TEST(CostCache, CountersExactUnderWorkerCounts)
{
    Model m;
    m.name = "distinct";
    m.layers = {conv("a", 32, 64, 28, 3), conv("b", 64, 64, 14, 3),
                linear("fc", 8, 256, 512), matmul("mm", 64, 32, 64)};

    for (int threads : {1, 8}) {
        dse::DseOptions opt;
        opt.threads = threads;
        opt.eval.dedupLayerClasses = false;
        opt.eval.pruneMappings = false;
        dse::DseEngine engine(opt);

        const std::uint64_t expectLookups = m.layers.size();

        // Cold: every lookup misses and inserts once.
        engine.mapModel(HardwareConfig{}, m);
        dse::CostCache &cache = engine.cache();
        dse::CacheCounters c = cache.counters();
        EXPECT_EQ(c.hits, 0u) << threads;
        EXPECT_EQ(c.misses, expectLookups) << threads;
        EXPECT_EQ(c.frontInserts, expectLookups) << threads;
        EXPECT_EQ(cache.size(), expectLookups) << threads;

        // Warm: the same lookups all hit; no misses or inserts.
        engine.mapModel(HardwareConfig{}, m);
        c = cache.counters();
        EXPECT_EQ(c.hits, expectLookups) << threads;
        EXPECT_EQ(c.misses, expectLookups) << threads;
        EXPECT_EQ(c.frontInserts, expectLookups) << threads;
        EXPECT_EQ(cache.size(), expectLookups) << threads;
        // The any-level frontier counters count the same lookups.
        EXPECT_EQ(c.frontHits, c.hits) << threads;
        EXPECT_EQ(c.frontMisses, c.misses) << threads;
    }
}

TEST(Mapper, ThinClientMatchesEvaluator)
{
    HardwareConfig hw;
    hw.dataflows = {DataflowTag::MN, DataflowTag::ICOC};
    for (const Layer &l :
         {conv("c", 64, 128, 28, 3), linear("fc", 64, 512, 1000),
          dwconv("dw", 96, 56, 3)}) {
        MappedLayer viaMapper = mapLayer(hw, l);
        CostCache cache;
        MappedLayer viaEngine =
            Evaluator(&cache).searchMapping(hw, l);
        EXPECT_EQ(viaMapper.result.cycles, viaEngine.result.cycles);
        EXPECT_EQ(viaMapper.result.energyPj,
                  viaEngine.result.energyPj);
        EXPECT_EQ(viaMapper.mapping.dataflow,
                  viaEngine.mapping.dataflow);
        EXPECT_EQ(viaMapper.mapping.tm, viaEngine.mapping.tm);
    }
}

TEST(Engine, MapModelMatchesScheduleModel)
{
    HardwareConfig hw;
    Model m = makeLeNet();
    ScheduleResult serial = scheduleModel(hw, m);
    DseOptions opt;
    opt.threads = 8;
    DseEngine engine(opt);
    ScheduleResult pooled = engine.mapModel(hw, m);
    EXPECT_EQ(serial.summary.totalCycles, pooled.summary.totalCycles);
    EXPECT_EQ(serial.summary.totalEnergyPj,
              pooled.summary.totalEnergyPj);
    EXPECT_EQ(serial.summary.dramBytes, pooled.summary.dramBytes);
    ASSERT_EQ(serial.perLayer.size(), pooled.perLayer.size());
    for (std::size_t i = 0; i < serial.perLayer.size(); ++i)
        EXPECT_EQ(serial.perLayer[i].result.cycles,
                  pooled.perLayer[i].result.cycles);
}

/** Frontier equality down to objective bits and candidate ids. */
void
expectSameFrontier(const ParetoArchive &a, const ParetoArchive &b)
{
    std::vector<DsePoint> pa = a.sorted(), pb = b.sorted();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
        EXPECT_EQ(pa[i].id, pb[i].id);
        EXPECT_EQ(pa[i].latencyCycles, pb[i].latencyCycles);
        EXPECT_EQ(pa[i].energyPj, pb[i].energyPj);
        EXPECT_EQ(pa[i].areaMm2, pb[i].areaMm2);
    }
}

TEST(Engine, ThreadCountDeterminism)
{
    Model m = makeLeNet();
    CandidateSpace space = dse::eyerissEquivalentSpace();
    for (StrategyKind kind :
         {StrategyKind::Exhaustive, StrategyKind::Random,
          StrategyKind::Anneal, StrategyKind::Genetic,
          StrategyKind::PrunedExhaustive}) {
        DseOptions o1;
        o1.threads = 1;
        o1.strategy = kind;
        o1.seed = 0xfeedbeef;
        o1.samples = 16;
        o1.rounds = 3;
        DseOptions o8 = o1;
        o8.threads = 8;
        DseResult r1 = DseEngine(o1).explore(space, m);
        DseResult r8 = DseEngine(o8).explore(space, m);
        EXPECT_EQ(r1.stats.evaluated, r8.stats.evaluated)
            << dse::strategyName(kind);
        expectSameFrontier(r1.archive, r8.archive);
    }
}

TEST(Engine, ExploreStatsMatchGlobalCounterDeltas)
{
    // explore() attributes through a StatsContext re-installed in
    // every pool item; with no other caller on the engine, every
    // attributed (Window) counter of its stats must equal the delta
    // of its global counter over the call — cold (misses) and warm
    // (hits) alike, unbounded and under an evicting capacity bound.
    Model m = makeLeNet();
    CandidateSpace space = dse::eyerissEquivalentSpace();
    // Passes: cold, then only the space's last candidate (among the
    // last the cold pass scored), then the whole space warm. The
    // second pass must hit on every lookup, capped or not: its
    // frontiers are among the most recently used, and an eviction
    // batch frees only its own snapshot's excess, oldest first. A
    // capped re-scan of the whole space may hit nothing (LRU evicts
    // each entry just before a same-order scan reaches it), so only
    // the unbounded third pass must hit.
    CandidateSpace last = space;
    last.arrays = {space.arrays.back()};
    last.l1KbOptions = {space.l1KbOptions.back()};
    last.ppuOptions = {space.ppuOptions.back()};
    last.dataflowSets = {space.dataflowSets.back()};
    // 64 single-point (K = 1) frontier entries of 360 B each.
    constexpr std::uint64_t kCapBytes = 64 * 360;
    const std::pair<int, std::uint64_t> configs[] = {
        {4, 0}, {4, kCapBytes}, {1, kCapBytes}};
    for (const auto &[threads, maxBytes] : configs) {
        SCOPED_TRACE(testing::Message() << threads << " workers, cap "
                                        << maxBytes << " B");
        DseOptions opt;
        opt.threads = threads;
        opt.cacheMaxBytes = maxBytes;
        DseEngine engine(opt);
        int pass = 0;
        for (const CandidateSpace *s : {&space, &last, &space}) {
            const dse::CacheCounters c0 = engine.cache().counters();
            const dse::EvalCounters e0 = engine.evaluator().counters();
            const DseResult r = engine.explore(*s, m);
            const dse::CacheCounters dc =
                engine.cache().counters() - c0;
            const dse::EvalCounters de =
                engine.evaluator().counters() - e0;
            for (const dse::CounterRow &row : dse::kCounterRows) {
                if (row.kind != dse::CounterKind::Window)
                    continue;
                const std::uint64_t global =
                    row.owner == dse::CounterOwner::Cache
                        ? dse::counterValue(dc, row.id)
                        : dse::counterValue(de, row.id);
                EXPECT_EQ(dse::counterValue(r.stats, row.id), global)
                    << row.metric << " pass " << pass;
            }
            if (pass == 1) {
                EXPECT_GT(r.stats.hits, 0u);
                EXPECT_EQ(r.stats.misses, 0u);
                EXPECT_EQ(r.stats.modelEvals, 0u);
            } else {
                EXPECT_GT(r.stats.misses + r.stats.hits, 0u) << pass;
                if (pass == 0) {
                    EXPECT_GT(r.stats.modelEvals, 0u);
                } else if (maxBytes == 0) {
                    EXPECT_GT(r.stats.hits, 0u);
                }
                if (maxBytes != 0) {
                    EXPECT_GT(r.stats.evictions, 0u) << pass;
                }
            }
            ++pass;
        }
    }
}

TEST(Engine, ExhaustiveArchiveIsTrueFrontier)
{
    // Tiny bespoke space: verify the archive equals the brute-force
    // non-dominated subset of ALL candidates.
    CandidateSpace s;
    s.arrays = {{8, 8}, {16, 16}};
    s.l1KbOptions = {64, 256};
    s.ppuOptions = {8};
    s.dataflowSets = {{DataflowTag::MN},
                      {DataflowTag::MN, DataflowTag::ICOC}};
    Model m = makeLeNet();

    DseOptions opt;
    opt.threads = 4;
    DseEngine engine(opt);
    DseResult r = engine.explore(s, m);
    EXPECT_EQ(r.stats.evaluated, s.size());

    std::vector<DsePoint> all;
    Evaluator plain(nullptr);
    for (std::size_t id = 0; id < s.size(); ++id)
        all.push_back(plain.evaluate(s.decode(id), m, id));
    for (const DsePoint &p : all) {
        bool dominated = false;
        for (const DsePoint &q : all)
            if (dse::dominates(q, p))
                dominated = true;
        bool archived = false;
        for (const DsePoint &q : r.archive.points())
            if (q.id == p.id)
                archived = true;
        if (dominated)
            EXPECT_FALSE(archived) << "dominated id " << p.id;
        else if (archived) {
            // Archived points must carry the exact evaluation.
            for (const DsePoint &q : r.archive.points())
                if (q.id == p.id) {
                    EXPECT_EQ(q.latencyCycles, p.latencyCycles);
                    EXPECT_EQ(q.energyPj, p.energyPj);
                    EXPECT_EQ(q.areaMm2, p.areaMm2);
                }
        }
    }
}

TEST(Engine, GeneticConvergesOnSmallSpace)
{
    // On a space the genetic budget can cover, evolution must find a
    // non-empty frontier of exactly-evaluated points and never score
    // more candidates than the space holds.
    CandidateSpace space = dse::eyerissEquivalentSpace();
    Model m = makeLeNet();
    DseOptions opt;
    opt.threads = 4;
    opt.strategy = StrategyKind::Genetic;
    opt.samples = 24;
    opt.rounds = 5;
    DseResult r = DseEngine(opt).explore(space, m);
    EXPECT_FALSE(r.archive.empty());
    EXPECT_LE(r.stats.evaluated, space.size());
    EXPECT_GE(r.stats.proposed, r.stats.evaluated);
    Evaluator plain(nullptr);
    for (const DsePoint &p : r.archive.points()) {
        DsePoint fresh = plain.evaluate(space.decode(p.id), m, p.id);
        EXPECT_EQ(p.latencyCycles, fresh.latencyCycles);
        EXPECT_EQ(p.energyPj, fresh.energyPj);
        EXPECT_EQ(p.areaMm2, fresh.areaMm2);
    }
}

TEST(Engine, PrunedExhaustiveSkipsInfeasible)
{
    // A space with L1 options too small for LeNet's first conv
    // (smallest tile needs 1280 bytes double-buffered): those
    // candidates must be pruned, counted, and absent from the result.
    CandidateSpace s;
    s.arrays = {{8, 8}, {16, 16}};
    s.l1KbOptions = {1, 2, 64, 256};
    s.ppuOptions = {8};
    s.dataflowSets = {{DataflowTag::MN},
                      {DataflowTag::MN, DataflowTag::ICOC}};
    Model m = makeLeNet();

    DseOptions ex;
    ex.threads = 4;
    DseResult re = DseEngine(ex).explore(s, m);
    DseOptions pr = ex;
    pr.strategy = StrategyKind::PrunedExhaustive;
    DseResult rp = DseEngine(pr).explore(s, m);

    std::size_t infeasible = 0;
    for (std::size_t id = 0; id < s.size(); ++id)
        if (!dse::feasible(s.decode(id), m))
            ++infeasible;
    ASSERT_GT(infeasible, 0u);
    EXPECT_EQ(rp.stats.pruned, infeasible);
    EXPECT_EQ(rp.stats.evaluated, s.size() - infeasible);
    EXPECT_EQ(re.stats.pruned, 0u);
    EXPECT_EQ(re.stats.evaluated, s.size());

    // Every archived point is feasible, and the pruned frontier is a
    // subset of the exhaustive frontier.
    for (const DsePoint &p : rp.archive.points()) {
        EXPECT_TRUE(dse::feasible(p.hw, m)) << "id " << p.id;
        bool inExhaustive = false;
        for (const DsePoint &q : re.archive.points())
            if (q.id == p.id)
                inExhaustive = true;
        EXPECT_TRUE(inExhaustive) << "id " << p.id;
    }
}

TEST(CostCache, SaveLoadWarmStart)
{
    std::string path =
        testing::TempDir() + "lego_dse_cache_roundtrip.bin";
    std::remove(path.c_str());

    CandidateSpace space = dse::eyerissEquivalentSpace();
    Model m = makeLeNet();
    DseOptions opt;
    opt.threads = 4;
    opt.cachePath = path;

    DseEngine cold(opt);
    DseResult rc = cold.explore(space, m);
    EXPECT_GT(rc.stats.misses, 0u);
    ASSERT_TRUE(cold.saveCache());

    // A fresh engine warm-starts from the file: every layer costing
    // is a hit, and the frontier is bit-identical.
    DseEngine warm(opt);
    EXPECT_EQ(warm.cache().size(), cold.cache().size());
    DseResult rw = warm.explore(space, m);
    EXPECT_EQ(rw.stats.misses, 0u);
    EXPECT_GT(rw.stats.hits, 0u);
    expectSameFrontier(rc.archive, rw.archive);

    // A valid header whose count word is corrupted must be rejected
    // (the count is cross-checked against the file length, never
    // trusted for an allocation).
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(3 * std::streamoff(sizeof(std::uint64_t)));
        std::uint64_t huge = ~0ull;
        f.write(reinterpret_cast<const char *>(&huge), sizeof(huge));
    }
    CostCache corruptCount;
    EXPECT_FALSE(corruptCount.load(path));
    EXPECT_EQ(corruptCount.size(), 0u);

    // Corrupt or stale files are rejected wholesale, not misread.
    std::ofstream(path, std::ios::binary) << "not a cache file";
    CostCache fresh;
    EXPECT_FALSE(fresh.load(path));
    EXPECT_EQ(fresh.size(), 0u);
    EXPECT_FALSE(fresh.load(path + ".does-not-exist"));
    std::remove(path.c_str());
}

TEST(Engine, MaxEvalsCapsWork)
{
    DseOptions opt;
    opt.threads = 2;
    opt.maxEvals = 5;
    DseEngine engine(opt);
    DseResult r =
        engine.explore(dse::eyerissEquivalentSpace(), makeLeNet());
    EXPECT_EQ(r.stats.evaluated, 5u);
}

/** The optimized run's work in one pinned sweep. */
struct SweepWork
{
    std::uint64_t modelEvals = 0;
    std::uint64_t searches = 0;
};

/** One worker; `naive` turns off class dedup, bound pruning and the
 *  frontier memo, so every layer scores every tiling itself. */
DseOptions
oneWorker(bool naive, std::size_t frontierK = 1)
{
    DseOptions o;
    o.threads = 1;
    o.compose.frontierK = frontierK;
    if (naive) {
        o.eval.dedupLayerClasses = false;
        o.eval.pruneMappings = false;
        o.eval.memoFrontiers = false;
    }
    return o;
}

/** Run f() on `engine`, recording its evaluator deltas in *w. */
template <class F>
auto
measureWork(DseEngine &engine, SweepWork *w, F &&f)
{
    const dse::EvalCounters e0 = engine.evaluator().counters();
    auto out = f();
    const dse::EvalCounters d = engine.evaluator().counters() - e0;
    w->modelEvals = d.modelEvals;
    w->searches = d.searches;
    return out;
}

/**
 * The DSE sweeps' exact work. Each case runs a fixed sweep on one
 * worker, checks the identity its optimizations must keep, and pins
 * the optimized run's model evaluations (`runLayerWithEff` calls)
 * and frontier sweeps. Every count is deterministic; a change that
 * moves one updates its pin and says why.
 */
TEST(Engine, SweepWorkIsPinned)
{
    const Model rn50 = makeResNet50();
    const Model mbv2 = makeMobileNetV2();
    const Model effnet = makeEfficientNetV2();
    const Model bert = makeBert();
    HardwareConfig eyeriss;
    eyeriss.name = "eyeriss";
    eyeriss.rows = 12;
    eyeriss.cols = 14;
    eyeriss.l1Kb = 182;
    eyeriss.freqGhz = 0.2;
    eyeriss.numPpus = 4;
    eyeriss.dataflows = {DataflowTag::KHOH};
    const HardwareConfig deploy; // The paper's MN/IC-OC 16x16 default.

    struct Sweep
    {
        const char *name;
        std::function<SweepWork()> run;
        std::uint64_t modelEvals, searches;
    };
    const Sweep sweeps[] = {
        // The timeloop_dse hardware sweep: exhaustive Eyeriss boxes
        // x RN50, naive vs optimized. The headline: >= 10x fewer
        // model evaluations at an identical frontier.
        {"timeloop_exhaustive_rn50",
         [&] {
             SweepWork w;
             const CandidateSpace space = dse::eyerissEquivalentSpace();
             DseEngine naive(oneWorker(true));
             const DseResult rn = naive.explore(space, rn50);
             DseEngine opt(oneWorker(false));
             const DseResult ro = measureWork(
                 opt, &w, [&] { return opt.explore(space, rn50); });
             expectSameFrontier(rn.archive, ro.archive);
             EXPECT_EQ(rn.stats.modelEvals, 118020u);
             EXPECT_GE(rn.stats.modelEvals, 10 * w.modelEvals);
             return w;
         },
         7066, 4200},
        // Mapping search on the fixed Eyeriss box, naive vs optimized.
        {"mapping_search_rn50",
         [&] {
             SweepWork w;
             const ScheduleResult a =
                 DseEngine(oneWorker(true)).mapModel(eyeriss, rn50);
             DseEngine opt(oneWorker(false));
             const ScheduleResult b = measureWork(
                 opt, &w, [&] { return opt.mapModel(eyeriss, rn50); });
             EXPECT_TRUE(sameSchedule(a, b));
             return w;
         },
         22, 14},
        // The same search rerun warm on one engine: every frontier
        // lookup hits, so nothing is swept or evaluated.
        {"mapping_search_rn50_warm",
         [&] {
             SweepWork w;
             DseEngine opt(oneWorker(false));
             const ScheduleResult cold = opt.mapModel(eyeriss, rn50);
             const ScheduleResult warm = measureWork(
                 opt, &w, [&] { return opt.mapModel(eyeriss, rn50); });
             EXPECT_TRUE(sameSchedule(cold, warm));
             return w;
         },
         0, 0},
        // BERT's repeated blocks collapse to layer classes.
        {"mapping_search_bert",
         [&] {
             SweepWork w;
             const ScheduleResult a =
                 DseEngine(oneWorker(true)).mapModel(deploy, bert);
             DseEngine opt(oneWorker(false));
             const ScheduleResult b = measureWork(
                 opt, &w, [&] { return opt.mapModel(deploy, bert); });
             EXPECT_TRUE(sameSchedule(a, b));
             return w;
         },
         12, 6},
        // K = 8 frontiers: naive vs optimized, and the unbudgeted
        // composition must equal the scalar (K = 1) schedule.
        {"frontier_sweep_rn50",
         [&] {
             SweepWork w;
             const ScheduleResult a = DseEngine(oneWorker(true, 8))
                                          .mapModelComposed(eyeriss, rn50);
             DseEngine opt(oneWorker(false, 8));
             const ScheduleResult b = measureWork(opt, &w, [&] {
                 return opt.mapModelComposed(eyeriss, rn50);
             });
             const ScheduleResult scalar =
                 DseEngine(oneWorker(false)).mapModel(eyeriss, rn50);
             EXPECT_TRUE(sameSchedule(a, b));
             EXPECT_TRUE(sameSchedule(scalar, b));
             return w;
         },
         310, 14},
        // Zoo-level dedup (the multimodel_mnicoc example's workload):
        // one shared class table equals independent per-model runs.
        {"multimodel_mnicoc",
         [&] {
             SweepWork w;
             DseEngine naive(oneWorker(true));
             const ScheduleResult na = naive.mapModel(deploy, mbv2);
             const ScheduleResult ne = naive.mapModel(deploy, effnet);
             const ScheduleResult nb = naive.mapModel(deploy, bert);
             DseEngine opt(oneWorker(false));
             const std::vector<const Model *> zoo = {&mbv2, &effnet,
                                                     &bert};
             const std::vector<ScheduleResult> shared = measureWork(
                 opt, &w, [&] { return opt.mapZoo(deploy, zoo); });
             EXPECT_EQ(shared.size(), 3u);
             if (shared.size() == 3) {
                 EXPECT_TRUE(sameSchedule(na, shared[0]));
                 EXPECT_TRUE(sameSchedule(ne, shared[1]));
                 EXPECT_TRUE(sameSchedule(nb, shared[2]));
             }
             return w;
         },
         104, 57},
        // RN50 on a 2 GB/s box: segmentation off at 4 workers must
        // equal the serial composition at 1; the segmented run's work
        // is pinned. (Its dominance over serial is the
        // segment_pipeline example's exit code.)
        {"segment_pipeline_rn50",
         [&] {
             SweepWork w;
             HardwareConfig hw;
             hw.dram.bandwidthGBs = 2.0;
             const ScheduleResult serial =
                 DseEngine(oneWorker(false)).mapModelComposed(hw, rn50);
             DseOptions off = oneWorker(false);
             off.threads = 4;
             EXPECT_TRUE(sameSchedule(
                 serial, DseEngine(off).mapModelComposed(hw, rn50)));
             DseOptions segmented = oneWorker(false);
             segmented.compose.segment.enable = true;
             DseEngine seg(segmented);
             measureWork(seg, &w,
                         [&] { return seg.mapModelComposed(hw, rn50); });
             return w;
         },
         173, 86},
    };
    for (const Sweep &s : sweeps) {
        SCOPED_TRACE(s.name);
        const SweepWork w = s.run();
        EXPECT_EQ(w.modelEvals, s.modelEvals);
        EXPECT_EQ(w.searches, s.searches);
    }
}

} // namespace
} // namespace lego
