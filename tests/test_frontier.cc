/**
 * @file
 * Tests for frontier-valued evaluation and the frontier-composing
 * scheduler: K = 1 equivalence with the scalar mapping search,
 * pruning-vs-naive frontier identity, bounded-K prefix semantics,
 * worker-count determinism, frontier memo round-trips (including
 * stale-file rejection), and composer budget semantics (greedy hull
 * sweep, budget monotonicity, latency mode, infeasible clamping).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "lego.hh"

namespace lego
{
namespace
{

using dse::CostCache;
using dse::DseEngine;
using dse::DseOptions;
using dse::Evaluator;
using dse::FrontierPoint;
using dse::MappingFrontier;

std::vector<HardwareConfig>
testConfigs()
{
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
    return configs;
}

std::vector<Layer>
testLayers()
{
    return {conv("c", 64, 128, 28, 3), conv("d", 256, 256, 14, 3),
            linear("fc", 64, 512, 1000), matmul("mm", 16, 16, 16),
            dwconv("dw", 96, 56, 3)};
}

void
expectSamePoint(const FrontierPoint &a, const FrontierPoint &b)
{
    EXPECT_EQ(a.mapping.dataflow, b.mapping.dataflow);
    EXPECT_EQ(a.mapping.tm, b.mapping.tm);
    EXPECT_EQ(a.mapping.tn, b.mapping.tn);
    EXPECT_EQ(a.mapping.tk, b.mapping.tk);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.energyPj, b.result.energyPj);
    EXPECT_EQ(a.result.utilization, b.result.utilization);
    EXPECT_EQ(a.result.dramBytes, b.result.dramBytes);
    EXPECT_EQ(a.seq, b.seq);
}

void
expectSameFrontier(const MappingFrontier &a, const MappingFrontier &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectSamePoint(a.points()[i], b.points()[i]);
}

/**
 * Regression: a bounded frontier filled in arbitrary order can lose
 * a point forever to the capacity trim that a later multi-point
 * domination would have re-admitted (insert A(1,10), B(2,9): full;
 * R(3,0.5): trimmed; P(1,1): removes A and B -> {P}, though the true
 * top-2 prefix is {P, R}). Ascending objective-0 insertion — the
 * order both sweep paths use — cannot hit this: it must match the
 * unbounded frontier's sorted prefix.
 */
TEST(FrontierContainer, AscendingInsertMatchesUnboundedPrefix)
{
    auto mk = [](Int cycles, double energy, std::uint64_t seq) {
        FrontierPoint p;
        p.result.cycles = cycles;
        p.result.energyPj = energy;
        p.seq = seq;
        return p;
    };
    const std::vector<FrontierPoint> pts = {
        mk(1, 10, 0), mk(2, 9, 1), mk(3, 0.5, 2), mk(1, 1, 3)};

    MappingFrontier unbounded(0);
    for (const FrontierPoint &p : pts)
        unbounded.insert(p); // Arbitrary order: exact when unbounded.
    ASSERT_EQ(unbounded.size(), 2u); // {P(1,1), R(3,0.5)}.
    EXPECT_EQ(unbounded.points()[0].result.cycles, 1);
    EXPECT_EQ(unbounded.points()[0].result.energyPj, 1.0);
    EXPECT_EQ(unbounded.points()[1].result.cycles, 3);

    std::vector<FrontierPoint> ascending = pts;
    std::stable_sort(ascending.begin(), ascending.end(),
                     [](const FrontierPoint &a, const FrontierPoint &b) {
                         return a.result.cycles < b.result.cycles;
                     });
    MappingFrontier bounded(2);
    for (const FrontierPoint &p : ascending)
        bounded.insert(p);
    ASSERT_EQ(bounded.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(bounded.points()[i].result.cycles,
                  unbounded.points()[i].result.cycles);
        EXPECT_EQ(bounded.points()[i].result.energyPj,
                  unbounded.points()[i].result.energyPj);
    }
}

/** The K = 1 frontier's point IS the scalar search answer. */
TEST(FrontierSearch, K1MatchesScalar)
{
    for (const HardwareConfig &hw : testConfigs()) {
        for (const Layer &l : testLayers()) {
            MappingFrontier f =
                Evaluator().searchMappingFrontier(hw, l, 1);
            ASSERT_EQ(f.size(), 1u);
            MappedLayer scalar = Evaluator().searchMapping(hw, l);
            EXPECT_EQ(f.best().mapping.dataflow,
                      scalar.mapping.dataflow);
            EXPECT_EQ(f.best().mapping.tm, scalar.mapping.tm);
            EXPECT_EQ(f.best().mapping.tn, scalar.mapping.tn);
            EXPECT_EQ(f.best().mapping.tk, scalar.mapping.tk);
            EXPECT_EQ(f.best().result.cycles, scalar.result.cycles);
            EXPECT_EQ(f.best().result.energyPj,
                      scalar.result.energyPj);

            // And the scalar answer is the naive exhaustive best.
            dse::EvalPolicy naive;
            naive.pruneMappings = false;
            naive.dedupLayerClasses = false;
            MappedLayer exhaustive =
                Evaluator(nullptr, naive).searchMapping(hw, l);
            EXPECT_EQ(scalar.mapping.tm, exhaustive.mapping.tm);
            EXPECT_EQ(scalar.result.cycles, exhaustive.result.cycles);
            EXPECT_EQ(scalar.result.energyPj,
                      exhaustive.result.energyPj);
        }
    }
}

/** Bound pruning must keep the WHOLE frontier bit-identical. */
TEST(FrontierSearch, PruningPreservesFrontier)
{
    dse::EvalPolicy naive;
    naive.pruneMappings = false;
    naive.dedupLayerClasses = false;
    for (const HardwareConfig &hw : testConfigs()) {
        for (const Layer &l : testLayers()) {
            for (std::size_t k : {1u, 2u, 4u, 16u}) {
                MappingFrontier slow =
                    Evaluator(nullptr, naive)
                        .searchMappingFrontier(hw, l, k);
                MappingFrontier fast =
                    Evaluator().searchMappingFrontier(hw, l, k);
                expectSameFrontier(slow, fast);
            }
        }
    }
}

/**
 * Frontier invariants: points are mutually non-dominated, sorted by
 * (cycles, energy), capped at K, and the K-bounded frontier is the
 * sorted prefix of the unbounded one (so tightening K never changes
 * which points survive, only how many).
 */
TEST(FrontierSearch, PointsNondominatedSortedBounded)
{
    for (const HardwareConfig &hw : testConfigs()) {
        for (const Layer &l : testLayers()) {
            MappingFrontier full =
                Evaluator().searchMappingFrontier(hw, l, 64);
            for (std::size_t i = 0; i < full.size(); ++i) {
                for (std::size_t j = 0; j < full.size(); ++j) {
                    if (i == j)
                        continue;
                    EXPECT_FALSE(MappingFrontier::dominates(
                        full.points()[i], full.points()[j]))
                        << i << " dominates " << j;
                }
                if (i > 0) {
                    EXPECT_GT(full.points()[i].result.cycles,
                              full.points()[i - 1].result.cycles);
                    EXPECT_LT(full.points()[i].result.energyPj,
                              full.points()[i - 1].result.energyPj);
                }
            }
            for (std::size_t k : {1u, 2u, 3u}) {
                MappingFrontier bounded =
                    Evaluator().searchMappingFrontier(hw, l, k);
                ASSERT_EQ(bounded.size(),
                          std::min<std::size_t>(k, full.size()));
                for (std::size_t i = 0; i < bounded.size(); ++i)
                    expectSamePoint(bounded.points()[i],
                                    full.points()[i]);
            }
        }
    }
}

/** Same frontiers for 1 and 8 workers, through the engine. */
TEST(FrontierSearch, WorkerCountDeterminism)
{
    Model m = makeMobileNetV2();
    HardwareConfig hw;
    DseOptions o1;
    o1.threads = 1;
    o1.compose.frontierK = 4;
    DseOptions o8 = o1;
    o8.threads = 8;
    ScheduleResult r1 = DseEngine(o1).mapModelComposed(hw, m);
    ScheduleResult r8 = DseEngine(o8).mapModelComposed(hw, m);
    EXPECT_EQ(r1.summary.totalCycles, r8.summary.totalCycles);
    EXPECT_EQ(r1.summary.totalEnergyPj, r8.summary.totalEnergyPj);
    ASSERT_EQ(r1.perLayerFrontier.size(), r8.perLayerFrontier.size());
    for (std::size_t i = 0; i < r1.perLayerFrontier.size(); ++i)
        expectSameFrontier(r1.perLayerFrontier[i],
                           r8.perLayerFrontier[i]);
}

/** Frontier memo: hit on re-search, identical points, counters. */
TEST(FrontierMemo, MemoizedEqualsFresh)
{
    HardwareConfig hw;
    hw.dataflows = {DataflowTag::MN, DataflowTag::ICOC};
    Layer l = conv("c", 64, 128, 28, 3);

    CostCache cache;
    Evaluator cached(&cache);
    MappingFrontier a = cached.searchMappingFrontier(hw, l, 4);
    EXPECT_EQ(cache.counters().frontMisses, 1u);
    EXPECT_EQ(cache.counters().frontInserts, 1u);
    EXPECT_EQ(cache.frontierCount(), 1u);
    std::uint64_t evals = cached.counters().modelEvals;

    MappingFrontier b = cached.searchMappingFrontier(hw, l, 4);
    EXPECT_EQ(cache.counters().frontHits, 1u);
    // A frontier hit skips the sweep entirely: no new evaluations.
    EXPECT_EQ(cached.counters().modelEvals, evals);
    expectSameFrontier(a, b);

    // Fresh (uncached) search agrees bit-for-bit.
    MappingFrontier c = Evaluator().searchMappingFrontier(hw, l, 4);
    expectSameFrontier(a, c);

    // Different K is a different entry, not a wrong hit.
    MappingFrontier d = cached.searchMappingFrontier(hw, l, 2);
    EXPECT_EQ(d.size(), std::min<std::size_t>(2, a.size()));
    EXPECT_EQ(cache.frontierCount(), 2u);

    // K = 1 is memoized like any other K: one miss, then a hit.
    std::uint64_t fm = cache.counters().frontMisses;
    std::uint64_t fh = cache.counters().frontHits;
    MappingFrontier e = cached.searchMappingFrontier(hw, l, 1);
    EXPECT_EQ(cache.counters().frontMisses, fm + 1);
    EXPECT_EQ(cache.frontierCount(), 3u);
    expectSameFrontier(e, cached.searchMappingFrontier(hw, l, 1));
    EXPECT_EQ(cache.counters().frontHits, fh + 1);
}

/** Frontier entries survive a save/load round trip bit-for-bit. */
TEST(FrontierMemo, CacheFileRoundTrip)
{
    std::string path =
        testing::TempDir() + "lego_frontier_cache_roundtrip.bin";
    std::remove(path.c_str());

    HardwareConfig hw;
    hw.dataflows = {DataflowTag::MN, DataflowTag::ICOC};
    Model m = makeLeNet();

    CostCache cold;
    Evaluator ev(&cold);
    std::vector<MappingFrontier> fronts = ev.mapModelFrontier(hw, m, 4);
    ASSERT_GT(cold.frontierCount(), 0u);
    ASSERT_TRUE(cold.save(path));

    CostCache warm;
    ASSERT_TRUE(warm.load(path));
    EXPECT_EQ(warm.size(), cold.size());
    EXPECT_EQ(warm.frontierCount(), cold.frontierCount());

    // A warm evaluator serves every frontier from the file: zero
    // model evaluations, bit-identical frontiers.
    Evaluator warmEv(&warm);
    std::vector<MappingFrontier> again =
        warmEv.mapModelFrontier(hw, m, 4);
    EXPECT_EQ(warmEv.counters().modelEvals, 0u);
    ASSERT_EQ(again.size(), fronts.size());
    for (std::size_t i = 0; i < fronts.size(); ++i)
        expectSameFrontier(fronts[i], again[i]);
    std::remove(path.c_str());
}

/** Old-version and corrupt cache files are rejected wholesale. */
TEST(FrontierMemo, StaleFileRejected)
{
    std::string path = testing::TempDir() + "lego_frontier_stale.bin";
    std::remove(path.c_str());

    HardwareConfig hw;
    Layer l = conv("c", 32, 32, 28, 3);
    CostCache cache;
    Evaluator ev(&cache);
    ev.searchMappingFrontier(hw, l, 4);
    ASSERT_TRUE(cache.save(path));

    // Patch the version word (offset 1) down to 1: a v1-era file
    // must be rejected by the version check — deliberate cold start
    // after the frontier-section format bump.
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(std::streamoff(sizeof(std::uint64_t)));
        std::uint64_t v1 = 1;
        f.write(reinterpret_cast<const char *>(&v1), sizeof(v1));
    }
    CostCache fresh;
    EXPECT_FALSE(fresh.load(path));
    EXPECT_EQ(fresh.size(), 0u);
    EXPECT_EQ(fresh.frontierCount(), 0u);

    // A file truncated inside the frontier section is rejected too.
    ASSERT_TRUE(cache.save(path));
    {
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        std::streamoff len = in.tellg();
        in.close();
        std::ifstream src(path, std::ios::binary);
        std::vector<char> bytes(std::size_t(len) - 8);
        src.read(bytes.data(), std::streamsize(bytes.size()));
        src.close();
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), std::streamsize(bytes.size()));
    }
    CostCache fresh2;
    EXPECT_FALSE(fresh2.load(path));
    EXPECT_EQ(fresh2.frontierCount(), 0u);
    std::remove(path.c_str());
}

/** With no budget the composer reproduces the scalar scheduler
 *  bit-for-bit at ANY frontier width. */
TEST(Composer, UnbudgetedReproducesScalarAtAnyK)
{
    HardwareConfig hw;
    for (const Model &m : {makeMobileNetV2(), makeLeNet()}) {
        ScheduleResult base = scheduleModel(hw, m);
        for (std::size_t k : {1u, 4u, 8u}) {
            ComposeOptions opt;
            opt.frontierK = k;
            ScheduleResult wide = scheduleModel(hw, m, opt);
            EXPECT_EQ(base.summary.totalCycles,
                      wide.summary.totalCycles);
            EXPECT_EQ(base.summary.totalEnergyPj,
                      wide.summary.totalEnergyPj);
            EXPECT_EQ(base.summary.dramBytes, wide.summary.dramBytes);
            ASSERT_EQ(base.perLayer.size(), wide.perLayer.size());
            for (std::size_t i = 0; i < base.perLayer.size(); ++i) {
                EXPECT_EQ(base.perLayer[i].mapping.tm,
                          wide.perLayer[i].mapping.tm);
                EXPECT_EQ(base.perLayer[i].result.cycles,
                          wide.perLayer[i].result.cycles);
            }
            EXPECT_TRUE(wide.compose.feasible);
            EXPECT_EQ(wide.compose.swaps, 0u);
        }
    }
}

/** Synthetic layer whose name is the only distinguisher. */
Model
twoLayerModel()
{
    Model m;
    m.name = "synthetic";
    m.layers = {matmul("a", 64, 64, 64), matmul("b", 32, 32, 32)};
    m.layers[1].repeat = 2;
    return m;
}

FrontierPoint
point(Int cycles, double energy, std::uint64_t seq)
{
    FrontierPoint p;
    p.result.cycles = cycles;
    p.result.energyPj = energy;
    p.seq = seq;
    return p;
}

/** Hand-built frontiers: the greedy hull sweep picks the exact
 *  selections, monotonically in the budget, in both modes. */
TEST(Composer, SyntheticBudgetSweep)
{
    Model m = twoLayerModel();
    // Layer a: three hull points (slopes -2 then -0.125).
    MappingFrontier fa(8);
    ASSERT_TRUE(fa.insert(point(100, 1000, 0)));
    ASSERT_TRUE(fa.insert(point(110, 980, 1)));
    ASSERT_TRUE(fa.insert(point(190, 970, 2)));
    // Layer b (repeat 2): two points, efficiency 1.0 per instance.
    MappingFrontier fb(8);
    ASSERT_TRUE(fb.insert(point(200, 500, 0)));
    ASSERT_TRUE(fb.insert(point(210, 490, 1)));

    auto compose = [&](double budget) {
        ComposeOptions opt;
        opt.energyBudgetPj = budget;
        return composeSchedule(m, {fa, fb}, opt);
    };
    // Unconstrained totals: 100 + 2*200 = 500 cycles, 1000 + 2*500
    // = 2000 pJ. Step efficiencies: a1 = 2.0, b1 = 1.0, a2 = 0.125.
    ScheduleResult loose = compose(2000);
    EXPECT_TRUE(loose.compose.feasible);
    EXPECT_EQ(loose.compose.swaps, 0u);
    EXPECT_EQ(loose.summary.totalCycles, 500);

    // Budget 1990: one swap (a -> 110 cyc, saves 20 pJ).
    ScheduleResult one = compose(1990);
    EXPECT_TRUE(one.compose.feasible);
    EXPECT_EQ(one.compose.swaps, 1u);
    EXPECT_EQ(one.summary.totalCycles, 510);
    EXPECT_EQ(one.summary.totalEnergyPj, 1980.0);
    EXPECT_EQ(one.perLayer[0].result.cycles, 110);

    // Budget 1965: a's first step (saves 20) then b's (saves 2*10).
    ScheduleResult two = compose(1965);
    EXPECT_TRUE(two.compose.feasible);
    EXPECT_EQ(two.compose.swaps, 2u);
    EXPECT_EQ(two.summary.totalCycles, 530);
    EXPECT_EQ(two.summary.totalEnergyPj, 1960.0);

    // Budget 1955: all three steps; the low-efficiency a2 last.
    ScheduleResult three = compose(1955);
    EXPECT_TRUE(three.compose.feasible);
    EXPECT_EQ(three.compose.swaps, 3u);
    EXPECT_EQ(three.summary.totalCycles, 610);
    EXPECT_EQ(three.summary.totalEnergyPj, 1950.0);

    // Below the floor: infeasible, clamped to the min-energy pick.
    ScheduleResult floor = compose(100);
    EXPECT_FALSE(floor.compose.feasible);
    EXPECT_EQ(floor.summary.totalEnergyPj, 1950.0);
    EXPECT_EQ(floor.summary.totalCycles, 610);

    // Monotonicity over a fine budget grid: tighter energy budget
    // never lowers latency.
    Int prevCycles = 0;
    for (double budget = 2010; budget >= 1940; budget -= 1) {
        ScheduleResult r = compose(budget);
        if (prevCycles != 0) {
            EXPECT_GE(r.summary.totalCycles, prevCycles)
                << "budget " << budget;
        }
        prevCycles = r.summary.totalCycles;
    }
}

/** Latency-budget mode: min energy under a cycle cap, monotone. */
TEST(Composer, LatencyBudgetMode)
{
    Model m = twoLayerModel();
    MappingFrontier fa(8);
    fa.insert(point(100, 1000, 0));
    fa.insert(point(110, 980, 1));
    fa.insert(point(190, 970, 2));
    MappingFrontier fb(8);
    fb.insert(point(200, 500, 0));
    fb.insert(point(210, 490, 1));

    auto compose = [&](double cap) {
        ComposeOptions opt;
        opt.latencyBudgetCycles = cap;
        return composeSchedule(m, {fa, fb}, opt);
    };
    // Min-energy extreme: 190 + 2*210 = 610 cycles, 1950 pJ.
    ScheduleResult loose = compose(610);
    EXPECT_TRUE(loose.compose.feasible);
    EXPECT_EQ(loose.summary.totalEnergyPj, 1950.0);

    // Cap 530: undo a's cheap step (a2, costs 10 pJ for 80 cycles).
    ScheduleResult mid = compose(530);
    EXPECT_TRUE(mid.compose.feasible);
    EXPECT_EQ(mid.summary.totalCycles, 530);
    EXPECT_EQ(mid.summary.totalEnergyPj, 1960.0);

    // Cap 500: everything undone — the best-latency extreme.
    ScheduleResult tight = compose(500);
    EXPECT_TRUE(tight.compose.feasible);
    EXPECT_EQ(tight.summary.totalCycles, 500);
    EXPECT_EQ(tight.summary.totalEnergyPj, 2000.0);

    // Below the best latency: infeasible, clamped there.
    ScheduleResult impossible = compose(100);
    EXPECT_FALSE(impossible.compose.feasible);
    EXPECT_EQ(impossible.summary.totalCycles, 500);

    // Tighter cap never lowers energy.
    double prevEnergy = 0;
    for (double cap = 620; cap >= 495; cap -= 5) {
        ScheduleResult r = compose(cap);
        if (prevEnergy != 0) {
            EXPECT_GE(r.summary.totalEnergyPj, prevEnergy)
                << "cap " << cap;
        }
        prevEnergy = r.summary.totalEnergyPj;
    }
}

/** A dominated-in-hull (concave) point is never selected. */
TEST(Composer, HullSkipsConcavePoints)
{
    Model m;
    m.name = "one";
    m.layers = {matmul("a", 64, 64, 64)};
    MappingFrontier f(8);
    f.insert(point(100, 1000, 0));
    f.insert(point(105, 995, 1)); // Above the 100->110 chord.
    f.insert(point(110, 980, 2));
    for (double budget : {999.0, 990.0, 981.0}) {
        ComposeOptions opt;
        opt.energyBudgetPj = budget;
        ScheduleResult r = composeSchedule(m, {f}, opt);
        // The concave middle point is skipped: the sweep lands on
        // the 110-cycle hull vertex directly.
        EXPECT_EQ(r.summary.totalCycles, 110);
        EXPECT_EQ(r.summary.totalEnergyPj, 980.0);
    }
}

/** Budget monotonicity on a real model end-to-end. */
TEST(Composer, BudgetMonotonicityReal)
{
    HardwareConfig hw;
    Model m = makeMobileNetV2();
    ScheduleResult base = scheduleModel(hw, m);
    const double e0 = base.summary.totalEnergyPj;

    Int prevCycles = 0;
    bool sawFeasibleTradeoff = false;
    for (double frac : {1.0, 0.999, 0.998, 0.995, 0.99, 0.95}) {
        ComposeOptions opt;
        opt.frontierK = 8;
        opt.energyBudgetPj = frac * e0;
        ScheduleResult r = scheduleModel(hw, m, opt);
        if (r.compose.feasible) {
            EXPECT_LE(r.summary.totalEnergyPj, opt.energyBudgetPj);
            if (frac < 1.0)
                sawFeasibleTradeoff = true;
        }
        EXPECT_GE(r.summary.totalCycles, base.summary.totalCycles);
        if (prevCycles != 0) {
            EXPECT_GE(r.summary.totalCycles, prevCycles)
                << "frac " << frac;
        }
        prevCycles = r.summary.totalCycles;
    }
    // The mapping space of this config offers at least one real
    // latency/energy tradeoff the scalar scheduler cannot reach.
    EXPECT_TRUE(sawFeasibleTradeoff);
}

} // namespace
} // namespace lego
