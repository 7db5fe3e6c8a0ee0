/**
 * @file
 * Tests for segment-valued scheduling (SET-style inter-layer spatial
 * pipelining): chain-run discovery, the all-singleton degenerate
 * case's bit-identity with the layer-valued composer, composer budget
 * edge cases (budget = 0, single-layer models, infeasible caps),
 * buffer-capacity infeasibility in the segment cost model, the
 * segmentation dynamic program against brute-force enumeration of
 * synthetic runs, search determinism for any worker count, the
 * tripped-deadline fallback, every registry model's searched plan and
 * cold work pinned, segment-record cache round trips (v3) with stale
 * v2 rejection, and the serve-loop segmentation knob (default off =
 * bit-identical replies).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <random>

#include "lego.hh"

namespace lego
{
namespace
{

using dse::CancelToken;
using dse::CostCache;
using dse::DseEngine;
using dse::DseOptions;
using dse::Evaluator;
using dse::SegmentSearchStats;
using serve::ServeLoop;
using serve::ServeOptions;
using serve::ServeRequest;

/** Four chainable 28x28 convs with a PPU break and a GEMM pair —
 *  chain runs (0, 4) and (5, 2). */
Model
chainModel()
{
    Model m;
    m.name = "chain";
    m.layers = {conv("c0", 16, 32, 28, 3), conv("c1", 32, 32, 28, 3),
                conv("c2", 32, 64, 28, 3), conv("c3", 64, 64, 28, 1),
                ppu("relu", PpuOp::Relu, 64 * 28 * 28),
                matmul("m0", 64, 64, 64), matmul("m1", 64, 64, 128)};
    return m;
}

void
expectSameSegments(const std::vector<Segment> &a,
                   const std::vector<Segment> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].first, b[i].first);
        EXPECT_EQ(a[i].len, b[i].len);
        ASSERT_EQ(a[i].stages.size(), b[i].stages.size());
        for (std::size_t j = 0; j < a[i].stages.size(); ++j) {
            EXPECT_EQ(a[i].stages[j].cols, b[i].stages[j].cols);
            EXPECT_EQ(a[i].stages[j].mapping.tm,
                      b[i].stages[j].mapping.tm);
            EXPECT_EQ(a[i].stages[j].result.cycles,
                      b[i].stages[j].result.cycles);
        }
        if (a[i].pipelined()) {
            EXPECT_EQ(a[i].cost.cycles, b[i].cost.cycles);
            EXPECT_EQ(a[i].cost.energyPj, b[i].cost.energyPj);
        }
    }
}

TEST(SegmentPlan, ChainRunsSplitOnPpuAndShapeBreaks)
{
    Model m = chainModel();
    const auto runs = chainRuns(m);
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].first, 0u);
    EXPECT_EQ(runs[0].second, 4u);
    EXPECT_EQ(runs[1].first, 5u);
    EXPECT_EQ(runs[1].second, 2u);

    // Conv <-> GEMM transitions and repeat mismatches break chains.
    EXPECT_FALSE(chainable(m.layers[3], m.layers[5]));
    Layer r2 = m.layers[1];
    r2.repeat = 2;
    EXPECT_FALSE(chainable(m.layers[0], r2));
    // A stride-2 consumer of a half-size map still chains.
    EXPECT_TRUE(
        chainable(conv("p", 16, 32, 28, 3), conv("c", 32, 64, 14, 3, 2)));

    SegmentPlan plan = singletonPlan(m);
    ASSERT_EQ(plan.segments.size(), m.layers.size());
    EXPECT_TRUE(plan.allSingleton());
    for (std::size_t i = 0; i < plan.segments.size(); ++i) {
        EXPECT_EQ(plan.segments[i].first, i);
        EXPECT_EQ(plan.segments[i].len, 1u);
    }
}

/** The all-singleton plan IS the layer-valued schedule, bit for bit
 *  — unbudgeted and budgeted, at several frontier widths. */
TEST(SegmentCompose, SingletonPlanBitIdentity)
{
    HardwareConfig hw;
    for (const Model &m :
         {chainModel(), makeLeNet(), makeMobileNetV2()}) {
        for (std::size_t k : {1u, 4u}) {
            Evaluator ev;
            std::vector<dse::MappingFrontier> fronts =
                ev.mapModelFrontier(hw, m, k);
            ComposeOptions opt;
            opt.frontierK = k;
            ScheduleResult classic = composeSchedule(m, fronts, opt);
            ScheduleResult viaPlan = composeSchedule(
                m, fronts, opt, singletonPlan(m));
            EXPECT_TRUE(sameSchedule(classic, viaPlan)) << m.name;
            EXPECT_EQ(classic.summary.totalCycles,
                      viaPlan.summary.totalCycles);
            EXPECT_EQ(classic.summary.totalEnergyPj,
                      viaPlan.summary.totalEnergyPj);
            EXPECT_EQ(classic.summary.ppuCycles,
                      viaPlan.summary.ppuCycles);

            // Budgeted path: the re-accumulate pass must replay the
            // budget-selected picks identically too.
            ComposeOptions tight = opt;
            tight.energyBudgetPj =
                0.999 * classic.summary.totalEnergyPj;
            ScheduleResult bClassic = composeSchedule(m, fronts, tight);
            ScheduleResult bPlan = composeSchedule(
                m, fronts, tight, singletonPlan(m));
            EXPECT_TRUE(sameSchedule(bClassic, bPlan)) << m.name;
        }
    }
}

/** Budget edge cases: budget = 0 is the unbudgeted fast path (the
 *  scalar-best schedule), on multi-layer and single-layer models. */
TEST(SegmentCompose, BudgetEdgeCases)
{
    HardwareConfig hw;

    // budget = 0 composes the scalar-best schedule at any K.
    Model m = chainModel();
    ScheduleResult base = scheduleModel(hw, m);
    ComposeOptions zero;
    zero.frontierK = 8;
    zero.energyBudgetPj = 0;
    ScheduleResult z = scheduleModel(hw, m, zero);
    EXPECT_FALSE(z.compose.budgeted);
    EXPECT_TRUE(sameSchedule(base, z));

    // Single-layer model: scalar best at budget = 0, min-energy
    // clamp (feasible = false) under an impossible budget.
    Model one;
    one.name = "one";
    one.layers = {conv("c", 64, 128, 28, 3)};
    ScheduleResult oneBase = scheduleModel(hw, one);
    ScheduleResult oneZero = scheduleModel(hw, one, zero);
    EXPECT_TRUE(sameSchedule(oneBase, oneZero));

    ComposeOptions impossible;
    impossible.frontierK = 8;
    impossible.energyBudgetPj = 1.0; // 1 pJ: unmeetable.
    ScheduleResult clamped = scheduleModel(hw, one, impossible);
    EXPECT_TRUE(clamped.compose.budgeted);
    EXPECT_FALSE(clamped.compose.feasible);
    // Clamped to the min-energy extreme: no cheaper point exists.
    EXPECT_GE(clamped.summary.totalCycles, oneBase.summary.totalCycles);
    EXPECT_LE(clamped.summary.totalEnergyPj,
              oneBase.summary.totalEnergyPj);
}

/** Oversized working sets overflow the slice's L1 share and must be
 *  rejected; a searched mapping under the slice sub-config fits. */
TEST(SegmentCost, BufferCapacityInfeasible)
{
    HardwareConfig hw;
    Model m = chainModel();
    const int banks = std::max(4, hw.rows + hw.cols);
    NocSpec fabric;
    fabric.kind = NocKind::Butterfly;
    fabric.endpointsX = banks;
    fabric.endpointsY = 1;
    fabric.freqGhz = hw.freqGhz;
    const NocPartitionTable noc(fabric, hw.cols);
    const SramPartitionTable sram(hw.l1Kb, hw.cols);

    auto stage = [&](std::size_t li, int cols) {
        SegmentStage st;
        st.layer = m.layers[li];
        st.cols = cols;
        MappedLayer ml =
            Evaluator().searchMapping(partitionConfig(hw, cols),
                                      st.layer);
        st.mapping = ml.mapping;
        st.result = ml.result;
        return st;
    };
    std::vector<SegmentStage> stages = {stage(0, 8), stage(1, 8)};
    SegmentCost ok = segmentPipelineCost(hw, stages, sram, noc);
    EXPECT_TRUE(ok.feasible);
    EXPECT_GT(ok.cycles, 0);
    EXPECT_GT(ok.dramBytesSaved, 0);
    EXPECT_GT(ok.nocBytes, 0);

    // Same chain, but the producer's tiles blown far past its L1
    // share: the occupancy check must reject the segment.
    std::vector<SegmentStage> fat = stages;
    fat[0].mapping.tm = 4096;
    fat[0].mapping.tn = 4096;
    fat[0].mapping.tk = 4096;
    SegmentCost bad = segmentPipelineCost(hw, fat, sram, noc);
    EXPECT_FALSE(bad.feasible);

    // Partition plumbing sanity: capacity and bisection bandwidth
    // scale with the slice, whole-array slice returns hw itself.
    EXPECT_EQ(sram.capacityBytes(hw.cols), hw.l1Kb * 1024);
    EXPECT_LT(sram.capacityBytes(4), sram.capacityBytes(8));
    EXPECT_LE(noc.bisectionGBs(4), noc.bisectionGBs(16));
    EXPECT_EQ(partitionConfig(hw, hw.cols).l1Kb, hw.l1Kb);
    EXPECT_EQ(partitionConfig(hw, 8).cols, 8);
    EXPECT_EQ(partitionConfig(hw, 8).l1Kb, hw.l1Kb / 2);
}

/** Every segmentation of `n` layers into groups of at most `maxLen`,
 *  as group lengths in layer order. */
void
allSegmentations(std::size_t n, std::size_t maxLen,
                 std::vector<std::size_t> *prefix,
                 std::vector<std::vector<std::size_t>> *out)
{
    if (n == 0) {
        out->push_back(*prefix);
        return;
    }
    for (std::size_t len = 1; len <= std::min(n, maxLen); ++len) {
        prefix->push_back(len);
        allSegmentations(n - len, maxLen, prefix, out);
        prefix->pop_back();
    }
}

/** The dynamic program is exact: on seeded synthetic runs (some
 *  groups not qualifying, small integer costs so sums are exact and
 *  ties frequent) its plan is the least-cost segmentation found by
 *  enumeration, and among equal-cost plans the one the tie rule picks
 *  (singleton first, then the shorter group, at every prefix end —
 *  the least reversed length list). Each group is costed once, in
 *  order of its end, then its length. */
TEST(SegmentSearch, DynamicProgramMatchesBruteForce)
{
    using Key = std::pair<std::size_t, std::size_t>;
    std::mt19937 rng(0x5e67);
    for (std::size_t n = 1; n <= 8; ++n) {
        for (int maxStages = 1; maxStages <= 4; ++maxStages) {
            const std::size_t maxLen = std::size_t(maxStages);
            std::vector<std::vector<std::size_t>> plans;
            std::vector<std::size_t> prefix;
            allSegmentations(n, maxLen, &prefix, &plans);
            for (int trial = 0; trial < 40; ++trial) {
                SCOPED_TRACE(testing::Message()
                             << "n " << n << " maxStages " << maxStages
                             << " trial " << trial);
                std::vector<double> singles(n);
                for (double &c : singles)
                    c = double(1 + rng() % 4);
                std::map<Key, std::optional<double>> groups;
                std::vector<Key> order;
                for (std::size_t end = 2; end <= n; ++end)
                    for (std::size_t len = 2;
                         len <= std::min(end, maxLen); ++len) {
                        const Key k{end - len, len};
                        order.push_back(k);
                        if (rng() % 3 != 0)
                            groups[k] = double(1 + rng() % (4 * len));
                        else
                            groups[k] = std::nullopt;
                    }

                std::vector<Key> calls;
                const std::vector<std::size_t> lens =
                    dse::bestSegmentation(
                        singles, maxStages,
                        [&](std::size_t start, std::size_t len) {
                            calls.push_back({start, len});
                            return groups.at({start, len});
                        });
                EXPECT_EQ(calls, order);

                // Cost of a plan, summed left to right as the DP
                // does; nullopt when a group does not qualify.
                auto cost = [&](const std::vector<std::size_t> &plan)
                    -> std::optional<double> {
                    double sum = 0;
                    std::size_t start = 0;
                    for (const std::size_t len : plan) {
                        if (len == 1) {
                            sum += singles[start];
                        } else {
                            const std::optional<double> c =
                                groups.at({start, len});
                            if (!c)
                                return std::nullopt;
                            sum += *c;
                        }
                        start += len;
                    }
                    return sum;
                };
                double least = std::numeric_limits<double>::infinity();
                std::vector<std::size_t> want, wantRev;
                for (const std::vector<std::size_t> &plan : plans) {
                    const std::optional<double> c = cost(plan);
                    if (!c)
                        continue;
                    const std::vector<std::size_t> rev(plan.rbegin(),
                                                       plan.rend());
                    if (*c < least || (*c == least && rev < wantRev)) {
                        least = *c;
                        want = plan;
                        wantRev = rev;
                    }
                }
                ASSERT_TRUE(cost(lens).has_value());
                EXPECT_EQ(*cost(lens), least);
                EXPECT_EQ(lens, want);
            }
        }
    }

    // Deliberate ties on three layers costing 2 each: {2,1}, {1,2}
    // and {3} all cost 5, and the singleton ending wins.
    const std::vector<double> twos = {2, 2, 2};
    auto fixed = [](double g01, double g12, double g012) {
        return [=](std::size_t start, std::size_t len) {
            if (len == 3)
                return std::optional<double>(g012);
            return std::optional<double>(start == 0 ? g01 : g12);
        };
    };
    EXPECT_EQ(dse::bestSegmentation(twos, 3, fixed(3, 3, 5)),
              (std::vector<std::size_t>{2, 1}));
    // {1,2} and {3} tie at 4: the shorter group wins.
    EXPECT_EQ(dse::bestSegmentation(twos, 3, fixed(3, 2, 4)),
              (std::vector<std::size_t>{1, 2}));
}

/** Same segmented schedule for 1 and 8 workers, cold or warm — the
 *  search has no randomness and runs on the dispatcher thread, so
 *  the worker pool cannot perturb it. */
TEST(SegmentSearch, WorkerCountAndWarmDeterminism)
{
    Model m = chainModel();
    HardwareConfig hw;
    hw.dram.bandwidthGBs = 4.0; // Bandwidth-lean edge config.
    DseOptions o1;
    o1.threads = 1;
    o1.compose.segment.enable = true;
    DseOptions o8 = o1;
    o8.threads = 8;
    DseEngine e1(o1), e8(o8);
    ScheduleResult r1 = e1.mapModelComposed(hw, m);
    ScheduleResult r8 = e8.mapModelComposed(hw, m);
    EXPECT_TRUE(sameSchedule(r1, r8));
    expectSameSegments(r1.segments, r8.segments);

    // Warm re-run on the same engine: identical again, and the
    // segment records now come from the cache.
    ScheduleResult warm = e1.mapModelComposed(hw, m);
    EXPECT_TRUE(sameSchedule(r1, warm));
    expectSameSegments(r1.segments, warm.segments);
    EXPECT_GT(e1.cache().counters().segHits, 0u);
    EXPECT_GT(e1.segmentStats().plansEvaluated, 0u);
}

/** A deadline that has already passed costs no group: the plan is
 *  all singletons, the token reads degraded, and no segment record
 *  enters the cache. A deadline-free search on the same cache then
 *  finds the plan an untouched cache gives. */
TEST(SegmentSearch, TrippedTokenFallsBackToSingletons)
{
    Model m = chainModel();
    HardwareConfig hw;
    hw.dram.bandwidthGBs = 4.0;
    SegmentOptions sopt;
    sopt.enable = true;

    CostCache cache;
    Evaluator ev(&cache);
    CancelToken expired;
    expired.setDeadlineIn(0);
    SegmentPlan cut =
        dse::searchSegments(hw, m, ev, sopt, nullptr, &expired);
    EXPECT_TRUE(cut.allSingleton());
    EXPECT_EQ(cut.segments.size(), m.layers.size());
    EXPECT_TRUE(expired.degraded());
    EXPECT_EQ(cache.counters().segInserts, 0u);

    SegmentPlan after = dse::searchSegments(hw, m, ev, sopt);
    CostCache fresh;
    Evaluator freshEv(&fresh);
    SegmentPlan want = dse::searchSegments(hw, m, freshEv, sopt);
    EXPECT_FALSE(want.allSingleton());
    expectSameSegments(after.segments, want.segments);
}

/** Segmentation disabled (the default) leaves the engine's composed
 *  schedule untouched — no segments, same bits. */
TEST(SegmentSearch, DisabledIsClassicalPath)
{
    Model m = chainModel();
    HardwareConfig hw;
    DseOptions off;
    ScheduleResult r = DseEngine(off).mapModelComposed(hw, m);
    EXPECT_TRUE(r.segments.empty());
    EXPECT_TRUE(sameSchedule(r, scheduleModel(hw, m)));

    Evaluator ev;
    SegmentOptions sopt; // enable defaults to false.
    SegmentPlan plan = dse::searchSegments(hw, m, ev, sopt);
    EXPECT_TRUE(plan.allSingleton());
    EXPECT_EQ(plan.segments.size(), m.layers.size());
}

/** On the bandwidth-lean config a pipelined segment must strictly
 *  dominate its members' serial execution on BOTH axes — the
 *  acceptance filter's contract (everything else is decomposed). */
TEST(SegmentSearch, AcceptedSegmentsStrictlyDominate)
{
    Model m = chainModel();
    HardwareConfig hw;
    hw.dram.bandwidthGBs = 4.0;
    Evaluator ev;
    SegmentOptions sopt;
    sopt.enable = true;
    SegmentSearchStats stats;
    SegmentPlan plan = dse::searchSegments(hw, m, ev, sopt, &stats);
    EXPECT_GT(stats.chainRuns, 0u);
    EXPECT_GT(stats.plansEvaluated, 0u);

    bool sawPipelined = false;
    for (const Segment &s : plan.segments) {
        if (!s.pipelined())
            continue;
        sawPipelined = true;
        ASSERT_EQ(s.stages.size(), s.len);
        EXPECT_TRUE(s.cost.feasible);
        Int serialCycles = 0;
        double serialEnergy = 0;
        for (std::size_t i = s.first; i < s.first + s.len; ++i) {
            MappedLayer ml = ev.searchMapping(hw, m.layers[i]);
            serialCycles += ml.result.cycles;
            serialEnergy += ml.result.energyPj;
        }
        EXPECT_LT(s.cost.cycles, serialCycles);
        EXPECT_LT(s.cost.energyPj, serialEnergy);
        EXPECT_GT(s.cost.dramBytesSaved, 0);
    }
    EXPECT_TRUE(sawPipelined);

    // And the composed schedule betters the serial one end to end.
    Evaluator ev2;
    std::vector<dse::MappingFrontier> fronts =
        ev2.mapModelFrontier(hw, m, 1);
    ComposeOptions copt;
    ScheduleResult serial = composeSchedule(m, fronts, copt);
    ScheduleResult seg = composeSchedule(m, fronts, copt, plan);
    EXPECT_LT(seg.summary.totalCycles, serial.summary.totalCycles);
    EXPECT_LT(seg.summary.totalEnergyPj,
              serial.summary.totalEnergyPj);
}

/** One pipelined segment of a pinned registry plan. */
struct PinnedSegment
{
    std::size_t first, len;
    std::vector<int> cols;
    Int cycles;
    double energyPj;
};

/** A registry model's cold segmentation search on the default
 *  hardware: its pipelined segments and the search's cold work. */
struct PinnedPlan
{
    const char *model;
    std::uint64_t segMisses, modelEvals;
    std::uint64_t plansEvaluated; //!< Distinct pipelined groups.
    std::vector<PinnedSegment> segments;
};

/** Every registry model's searched plan and cold work, pinned: a
 *  change to the search's internals (caching, evaluation order) must
 *  leave the emitted plan, its costs and the cache traffic that
 *  reaches the evaluator exactly as they are. A warm re-run on the
 *  same engine replays the plan from the cache alone. */
TEST(SegmentSearch, RegistryPlansArePinned)
{
    // {model, cold segMisses, cold modelEvals, plansEvaluated,
    //  {{first, len, cols, cycles, energyPj}, ...}}
    const std::vector<PinnedPlan> pins = {
        {"alexnet", 32, 53, 32,
         {{9, 3, {10, 3, 3}, 3701890, 4889835430.4776287}}},
        {"mobilenetv2", 49, 154, 55,
         {{0, 2, {12, 4}, 70139, 76333883.149717852},
          {4, 2, {14, 2}, 94524, 81636697.035026789},
          {8, 2, {9, 7}, 78943, 79912777.994597897},
          {13, 2, {14, 2}, 54968, 50108198.330786981},
          {17, 2, {12, 4}, 33887, 44586278.92702093},
          {22, 2, {13, 3}, 26255, 19521082.414411418}}},
        {"resnet50", 48, 162, 48, {}},
        {"efficientnetv2", 37, 160, 134,
         {{6, 2, {13, 3}, 191094, 121298780.6652267},
          {10, 2, {14, 2}, 50497, 59820028.439041696},
          {14, 2, {14, 2}, 50497, 59820028.439041696},
          {18, 2, {14, 2}, 50497, 59820028.439041696},
          {22, 2, {14, 2}, 50497, 59820028.439041696},
          {26, 2, {14, 2}, 50497, 59820028.439041696}}},
        {"bert", 0, 0, 0, {}},
        {"gpt2", 0, 0, 0, {}},
        {"coatnet", 6, 59, 6,
         {{1, 2, {13, 3}, 1016214, 660044884.54166341}}},
        {"lenet", 13, 26, 13, {}},
        {"ddpm", 3, 61, 3, {}},
        {"sdunet", 0, 0, 0, {}},
        {"llama7b", 5, 23, 5,
         {{8, 2, {12, 4}, 5690663, 7528580563.0064516}}},
        {"llama7b-bs32", 3, 43, 3, {}},
    };
    const std::vector<std::string> names = serve::modelRegistryNames();
    ASSERT_EQ(names.size(), pins.size());

    HardwareConfig hw;
    for (std::size_t n = 0; n < pins.size(); ++n) {
        const PinnedPlan &pin = pins[n];
        SCOPED_TRACE(pin.model);
        ASSERT_EQ(names[n], pin.model);
        Model m;
        ASSERT_TRUE(serve::lookupModel(pin.model, &m));
        DseOptions o;
        o.threads = 1;
        o.compose.segment.enable = true;
        DseEngine e(o);

        SegmentPlan cold = e.searchSegmentPlan(hw, m, o.compose.segment);
        std::vector<const Segment *> piped;
        for (const Segment &s : cold.segments)
            if (s.pipelined())
                piped.push_back(&s);
        ASSERT_EQ(piped.size(), pin.segments.size());
        for (std::size_t i = 0; i < piped.size(); ++i) {
            SCOPED_TRACE(i);
            const Segment &s = *piped[i];
            const PinnedSegment &p = pin.segments[i];
            EXPECT_EQ(s.first, p.first);
            EXPECT_EQ(s.len, p.len);
            std::vector<int> cols;
            for (const SegmentStage &st : s.stages)
                cols.push_back(st.cols);
            EXPECT_EQ(cols, p.cols);
            EXPECT_EQ(s.cost.cycles, p.cycles);
            EXPECT_DOUBLE_EQ(s.cost.energyPj, p.energyPj);
        }
        const std::uint64_t evals = e.evaluator().counters().modelEvals;
        EXPECT_EQ(e.cache().counters().segMisses, pin.segMisses);
        EXPECT_EQ(evals, pin.modelEvals);
        EXPECT_EQ(e.segmentStats().plansEvaluated, pin.plansEvaluated);

        // Warm: the same plan, every record and mapping a cache hit.
        SegmentPlan warm = e.searchSegmentPlan(hw, m, o.compose.segment);
        expectSameSegments(cold.segments, warm.segments);
        EXPECT_EQ(e.cache().counters().segMisses, pin.segMisses);
        EXPECT_EQ(e.evaluator().counters().modelEvals, evals);
        EXPECT_EQ(e.segmentStats().plansEvaluated, 2 * pin.plansEvaluated);
    }
}

/** Segment records survive a v5 save/load round trip bit-for-bit; a
 *  v2-stamped file is rejected wholesale (cold start). */
TEST(SegmentCache, V4RoundTripAndV2Rejected)
{
    const std::string path =
        testing::TempDir() + "lego_segment_cache.bin";
    std::remove(path.c_str());

    Model m = chainModel();
    HardwareConfig hw;
    hw.dram.bandwidthGBs = 4.0;
    SegmentOptions sopt;
    sopt.enable = true;

    CostCache cold;
    Evaluator ev(&cold);
    SegmentPlan plan = dse::searchSegments(hw, m, ev, sopt);
    ASSERT_GT(cold.segmentCount(), 0u);
    ASSERT_GT(cold.counters().segInserts, 0u);
    ASSERT_TRUE(cold.save(path));
    EXPECT_EQ(CostCache::fileFormatVersion(), 6u);

    CostCache warm;
    ASSERT_TRUE(warm.load(path));
    EXPECT_EQ(warm.size(), cold.size());
    EXPECT_EQ(warm.frontierCount(), cold.frontierCount());
    EXPECT_EQ(warm.segmentCount(), cold.segmentCount());

    // A warm search replays the identical plan from the file —
    // every segment evaluation is a record hit.
    Evaluator warmEv(&warm);
    SegmentSearchStats stats;
    SegmentPlan again = dse::searchSegments(hw, m, warmEv, sopt, &stats);
    expectSameSegments(plan.segments, again.segments);
    EXPECT_GT(warm.counters().segHits, 0u);
    EXPECT_EQ(warm.counters().segMisses, 0u);

    // Patch the version word (offset 1) down to 2: a v2-era file —
    // no segment section — must be rejected, never misread.
    {
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        f.seekp(std::streamoff(sizeof(std::uint64_t)));
        const std::uint64_t v2 = 2;
        f.write(reinterpret_cast<const char *>(&v2), sizeof(v2));
    }
    CostCache stale;
    EXPECT_FALSE(stale.load(path));
    EXPECT_EQ(stale.size(), 0u);
    EXPECT_EQ(stale.segmentCount(), 0u);

    // Truncation inside the segment section is rejected too.
    ASSERT_TRUE(cold.save(path));
    {
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        const std::streamoff len = in.tellg();
        in.close();
        std::ifstream src(path, std::ios::binary);
        std::vector<char> bytes(std::size_t(len) - 8);
        src.read(bytes.data(), std::streamsize(bytes.size()));
        src.close();
        std::ofstream out(path,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), std::streamsize(bytes.size()));
    }
    CostCache cut;
    EXPECT_FALSE(cut.load(path));
    EXPECT_EQ(cut.segmentCount(), 0u);
    std::remove(path.c_str());
}

TEST(ServeSegment, RequestKnobParsesAndRoundTrips)
{
    ServeRequest req;
    std::string err;
    ASSERT_TRUE(parseRequest(
        "{\"models\": [\"lenet\"], \"segment\": 1}", &req, &err))
        << err;
    EXPECT_TRUE(req.segment);
    ASSERT_TRUE(parseRequest(
        "{\"models\": [\"lenet\"], \"segment\": 0}", &req, &err))
        << err;
    EXPECT_FALSE(req.segment);
    ASSERT_TRUE(
        parseRequest("{\"models\": [\"lenet\"]}", &req, &err))
        << err;
    EXPECT_FALSE(req.segment); // Default off.

    // Strict values: anything but 0/1 is malformed.
    EXPECT_FALSE(parseRequest(
        "{\"models\": [\"lenet\"], \"segment\": 2}", &req, &err));
    EXPECT_NE(err.find("segment"), std::string::npos);

    // formatRequest round-trips the knob, and omits it when off so
    // pre-segmentation traces serialize unchanged.
    req.segment = true;
    ServeRequest back;
    ASSERT_TRUE(parseRequest(formatRequest(req), &back, &err)) << err;
    EXPECT_TRUE(back.segment);
    req.segment = false;
    EXPECT_EQ(formatRequest(req).find("segment"), std::string::npos);
    ASSERT_TRUE(parseRequest(formatRequest(req), &back, &err)) << err;
    EXPECT_FALSE(back.segment);
}

/** segment = 0 (or absent) keeps serve replies bit-identical to a
 *  loop that has never heard of the knob's code path. */
TEST(ServeSegment, KnobOffRepliesBitIdentical)
{
    auto replay = [](const std::vector<std::string> &lines,
                     int threads) {
        ServeOptions opt;
        opt.dse.threads = threads;
        ServeLoop loop(opt);
        for (const std::string &l : lines)
            loop.submitLine(l);
        loop.drain();
        std::vector<serve::ServeResponse> rs = loop.responses();
        loop.shutdown();
        return rs;
    };
    const std::vector<std::string> plain = {
        "{\"models\": [\"lenet\"], \"k\": 4}",
        "{\"models\": [\"lenet\", \"alexnet\"]}"};
    const std::vector<std::string> withKnob = {
        "{\"models\": [\"lenet\"], \"k\": 4, \"segment\": 0}",
        "{\"models\": [\"lenet\", \"alexnet\"], \"segment\": 0}"};
    std::vector<serve::ServeResponse> a = replay(plain, 1);
    std::vector<serve::ServeResponse> b = replay(withKnob, 2);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(serve::sameResponse(a[i], b[i])) << i;
}

/** segment = 1 serves segment-composed schedules deterministically
 *  and reports the dse.segment.* metrics. */
TEST(ServeSegment, KnobOnServesSegmentedSchedules)
{
    ServeOptions opt;
    opt.hw.dram.bandwidthGBs = 4.0;
    ServeLoop loop(opt);
    // chainModel() is not in the registry; alexnet's conv trunk
    // carries chainable runs, which is all the path needs.
    loop.submitLine("{\"models\": [\"alexnet\"], \"segment\": 1}");
    loop.submitLine("{\"models\": [\"alexnet\"], \"segment\": 1}");
    loop.drain();
    std::vector<serve::ServeResponse> rs = loop.responses();
    ASSERT_EQ(rs.size(), 2u);
    for (const serve::ServeResponse &r : rs) {
        ASSERT_TRUE(r.ok) << r.error;
        ASSERT_EQ(r.schedules.size(), 1u);
        EXPECT_TRUE(r.compose.segment.enable);
        EXPECT_FALSE(r.schedules[0].segments.empty());
    }
    // Same request, same engine: bit-identical replies (ids/seq
    // differ by admission, so compare the schedules directly).
    EXPECT_TRUE(sameSchedule(rs[0].schedules[0], rs[1].schedules[0]));
    EXPECT_GT(loop.engine().segmentStats().plansEvaluated, 0u);

    obs::MetricsRegistry reg;
    loop.engine().publishMetrics(reg);
    EXPECT_TRUE(reg.snapshot().toJson().find("dse.segment.plans") !=
                std::string::npos);
    loop.shutdown();
}

} // namespace
} // namespace lego
