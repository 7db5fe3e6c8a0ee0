/**
 * @file
 * Tracked DSE performance harness. Runs fixed sweeps twice — once
 * with the naive evaluator policy (no layer-class deduplication, no
 * bound pruning: the pre-optimization hot path) and once with the
 * optimized defaults — asserts the outputs are bit-identical, and
 * emits BENCH_dse.json with evaluation counts, cache-level hits,
 * pruning counters, and wall times so every PR has a perf
 * trajectory.
 *
 * Usage:
 *   bench_dse_perf [--baseline FILE] [--out FILE]
 *                  [--trace-out FILE] [--stats-out FILE]
 *
 * --baseline compares the optimized model-evaluation counts against
 * a previously committed BENCH_dse.json and fails (exit 1) on a
 * >10% regression in any sweep. The headline sweep (the timeloop_dse
 * exhaustive hardware sweep) must also show a >= 10x reduction in
 * runLayerWithEff invocations over the naive policy.
 *
 * The segment_pipeline_rn50 sweep exercises segment-valued
 * scheduling: RN50 on a bandwidth-lean (2 GB/s DRAM) box with the
 * segmentation search on vs. the serial layer-valued composition.
 * It fails (exit 1) unless segmentation-off reproduces the serial
 * schedule bit-identically at a different worker count AND the
 * segmented schedule carries >= 1 pipelined segment that makes it
 * strictly dominate serial on both latency and energy
 * (latency_ratio < 1 and energy_ratio < 1 in BENCH_dse.json,
 * schema 3).
 *
 * The cache_eviction section (schema 6) covers the bounded cost
 * cache with a frontier-valued zoo replay (exit 1 unless both hold):
 * capped at half its measured working set it must evict, stay within
 * the byte budget and answer exactly the unbounded frontiers; capped
 * at a fixed 299,064 B it must keep its warm frontier-hit rate within
 * 10 points of the unbounded ideal. Every sweep also reports its
 * frontier sweeps (`searches`); serve_replay's warm pass must run
 * none.
 *
 * Observability numbers in BENCH_dse.json:
 *  - per-sweep p50/p95/p99 request-latency percentiles (serve_replay
 *    reports its warm pass; sweeps without per-request latencies
 *    report 0),
 *  - a "tracing" object with the measured disabled-tracing overhead:
 *    per-disabled-span cost (microbenchmarked) x spans the headline
 *    sweep emits (counted on an enabled rerun) / headline wall time.
 *    The derived ratio is robust against run-to-run wall noise that
 *    a naive A/B wall comparison at the <= 2% scale would drown in.
 *    Overhead > 2% fails the bench (exit 1).
 * --trace-out writes the enabled rerun's Chrome trace JSON;
 * --stats-out writes a process metrics snapshot (pool contention
 * histograms + headline-rerun engine counters).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "lego.hh"
#include "obs/build_info.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve_load.hh"

using namespace lego;

namespace
{

struct SweepNumbers
{
    std::string name;
    /** The optimized run's counter deltas (serve_replay: summed
     *  over its warm pass's requests). */
    dse::CacheCounters cache;
    dse::EvalCounters eval;
    std::uint64_t naiveModelEvals = 0; //!< Same sweep, naive policy.
    std::uint64_t frontierPoints = 0;
    /** Warm-pass frontier-memo hit share (serve_replay only). */
    double warmFrontHitRate = 0;
    double wallSeconds = 0;
    double naiveWallSeconds = 0;
    /** Per-request latency percentiles in ms (serve_replay's warm
     *  pass; 0 for sweeps without per-request latencies). */
    double p50Ms = 0, p95Ms = 0, p99Ms = 0;
    /** Accepted pipelined (multi-layer) segments
     *  (segment_pipeline_rn50 only; 0 elsewhere). */
    std::uint64_t pipelinedSegments = 0;
    /** Segmented-vs-serial schedule cost ratios (< 1 means the
     *  pipelined schedule wins; 0 for non-segment sweeps). */
    double latencyRatio = 0, energyRatio = 0;
    bool identicalOutput = false;

    double reduction() const
    {
        // 0 optimized evals against nonzero naive work is a perfect
        // result; report it as the naive count (the ratio against
        // one eval) so the metric stays monotone instead of
        // collapsing to a worst-looking 0.
        if (eval.modelEvals == 0)
            return double(naiveModelEvals);
        return double(naiveModelEvals) / double(eval.modelEvals);
    }
};

dse::EvalPolicy
naivePolicy()
{
    dse::EvalPolicy p;
    p.dedupLayerClasses = false;
    p.pruneMappings = false;
    // The naive reference must re-sweep every repeated layer shape
    // itself, not copy a memoized frontier produced by the very
    // mechanism under test: it scores every tiling of every layer.
    p.memoFrontiers = false;
    return p;
}

HardwareConfig
eyerissConfig()
{
    HardwareConfig hw;
    hw.name = "eyeriss";
    hw.rows = 12;
    hw.cols = 14;
    hw.l1Kb = 182;
    hw.freqGhz = 0.2;
    hw.numPpus = 4;
    hw.dataflows = {DataflowTag::KHOH};
    return hw;
}

bool
sameFrontier(const dse::ParetoArchive &a, const dse::ParetoArchive &b)
{
    std::vector<dse::DsePoint> pa = a.sorted(), pb = b.sorted();
    if (pa.size() != pb.size())
        return false;
    for (std::size_t i = 0; i < pa.size(); ++i)
        if (pa[i].id != pb[i].id ||
            pa[i].latencyCycles != pb[i].latencyCycles ||
            pa[i].energyPj != pb[i].energyPj ||
            pa[i].areaMm2 != pb[i].areaMm2)
            return false;
    return true;
}

// Schedule equality is the shared lego::sameSchedule — the same
// comparator the serve loop's replay identities are pinned with.

/** Run f() on `engine`; its wall time and counter deltas land in
 *  *s. Returns f's result. */
template <class F>
auto
measure(SweepNumbers *s, dse::DseEngine &engine, F &&f)
{
    const dse::CacheCounters c0 = engine.cache().counters();
    const dse::EvalCounters e0 = engine.evaluator().counters();
    const auto t0 = std::chrono::steady_clock::now();
    auto out = f();
    s->wallSeconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    s->cache = engine.cache().counters() - c0;
    s->eval = engine.evaluator().counters() - e0;
    return out;
}

/** The timeloop_dse hardware sweep: exhaustive Eyeriss-box x RN50. */
SweepNumbers
sweepTimeloopExhaustive(const Model &rn50)
{
    SweepNumbers s;
    s.name = "timeloop_exhaustive_rn50";
    dse::CandidateSpace space = dse::eyerissEquivalentSpace();

    dse::DseOptions naive;
    naive.threads = 1;
    naive.eval = naivePolicy();
    dse::DseEngine naiveEngine(naive);
    dse::DseResult rn = naiveEngine.explore(space, rn50);
    s.naiveModelEvals = rn.stats.modelEvals;
    s.naiveWallSeconds = rn.stats.wallSeconds;

    dse::DseOptions opt;
    opt.threads = 1;
    dse::DseEngine engine(opt);
    dse::DseResult ro =
        measure(&s, engine, [&] { return engine.explore(space, rn50); });
    s.frontierPoints = ro.archive.size();
    s.identicalOutput = sameFrontier(rn.archive, ro.archive);
    return s;
}

/** Mapping-space search on the fixed Eyeriss instance. */
SweepNumbers
sweepMappingSearch(const Model &rn50)
{
    SweepNumbers s;
    s.name = "mapping_search_rn50";
    HardwareConfig eyeriss = eyerissConfig();

    dse::DseOptions naive;
    naive.threads = 1;
    naive.eval = naivePolicy();
    dse::DseEngine naiveEngine(naive);
    auto t0 = std::chrono::steady_clock::now();
    ScheduleResult a = naiveEngine.mapModel(eyeriss, rn50);
    s.naiveWallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    s.naiveModelEvals =
        naiveEngine.evaluator().counters().modelEvals;

    dse::DseOptions opt;
    opt.threads = 1;
    dse::DseEngine engine(opt);
    ScheduleResult b =
        measure(&s, engine, [&] { return engine.mapModel(eyeriss, rn50); });
    s.identicalOutput = sameSchedule(a, b);
    return s;
}

/**
 * Warm re-run of the mapping search on one engine: every layer's
 * frontier lookup hits (zero sweeps, zero model evaluations), almost
 * all in the thread-local L0 (zero locks; direct-mapped slot
 * collisions fall through to L1), and the schedule must be
 * bit-identical to the cold run's.
 */
SweepNumbers
sweepMappingSearchWarm(const Model &rn50)
{
    SweepNumbers s;
    s.name = "mapping_search_rn50_warm";
    HardwareConfig eyeriss = eyerissConfig();

    dse::DseOptions opt;
    opt.threads = 1;
    dse::DseEngine engine(opt);
    ScheduleResult cold = engine.mapModel(eyeriss, rn50);

    // No separate naive engine here: the interesting numbers are 0
    // model evaluations and an (almost) all-L0 hit path.
    ScheduleResult warm =
        measure(&s, engine, [&] { return engine.mapModel(eyeriss, rn50); });
    s.naiveModelEvals = s.eval.modelEvals;
    s.naiveWallSeconds = s.wallSeconds;
    s.identicalOutput = sameSchedule(cold, warm);
    return s;
}

/** Transformer dedup: BERT's repeated blocks collapse to classes. */
SweepNumbers
sweepBert()
{
    SweepNumbers s;
    s.name = "mapping_search_bert";
    Model bert = makeBert();
    HardwareConfig hw; // The paper's 16x16 deployment default.

    dse::DseOptions naive;
    naive.threads = 1;
    naive.eval = naivePolicy();
    dse::DseEngine naiveEngine(naive);
    auto t0 = std::chrono::steady_clock::now();
    ScheduleResult a = naiveEngine.mapModel(hw, bert);
    s.naiveWallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    s.naiveModelEvals =
        naiveEngine.evaluator().counters().modelEvals;

    dse::DseOptions opt;
    opt.threads = 1;
    dse::DseEngine engine(opt);
    ScheduleResult b =
        measure(&s, engine, [&] { return engine.mapModel(hw, bert); });
    s.identicalOutput = sameSchedule(a, b);
    return s;
}

/**
 * Frontier-valued mapping sweep (K = 8) on the Eyeriss instance.
 * Asserts THE tentpole invariant end-to-end: the best-latency
 * composition over per-layer frontiers is bit-identical to the
 * scalar (K = 1) schedule, so widening the search never perturbs
 * the classical answer. Eval counts are tracked so frontier-sweep
 * regressions gate CI like the scalar sweeps.
 */
SweepNumbers
sweepFrontierSearch(const Model &rn50)
{
    SweepNumbers s;
    s.name = "frontier_sweep_rn50";
    HardwareConfig eyeriss = eyerissConfig();

    // Naive reference: same K without dedup/pruning.
    dse::DseOptions naive;
    naive.threads = 1;
    naive.eval = naivePolicy();
    naive.compose.frontierK = 8;
    dse::DseEngine naiveEngine(naive);
    auto t0 = std::chrono::steady_clock::now();
    ScheduleResult a = naiveEngine.mapModelComposed(eyeriss, rn50);
    s.naiveWallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    s.naiveModelEvals =
        naiveEngine.evaluator().counters().modelEvals;

    dse::DseOptions opt;
    opt.threads = 1;
    opt.compose.frontierK = 8;
    dse::DseEngine engine(opt);
    ScheduleResult b =
        measure(&s, engine,
                [&] { return engine.mapModelComposed(eyeriss, rn50); });
    s.frontierPoints = b.compose.frontierPoints;

    // The scalar schedule from an untouched engine: the frontier
    // sweep's unbudgeted composition must reproduce it exactly, and
    // the naive-vs-optimized frontier runs must agree too.
    dse::DseOptions sopt;
    sopt.threads = 1;
    ScheduleResult scalar =
        dse::DseEngine(sopt).mapModel(eyeriss, rn50);
    s.identicalOutput =
        sameSchedule(a, b) && sameSchedule(scalar, b);
    return s;
}

/**
 * Zoo-level dedup scenario (the multimodel_mnicoc example's
 * workload): MobileNetV2 + EfficientNetV2 + BERT share one class
 * table on the MN/IC-OC switchable deployment config, so
 * shape-identical layers of different networks (the CNNs' shared
 * 1280->1000 classifier head) are searched once. Identity: the zoo
 * schedules equal independent per-model schedules bit-for-bit.
 */
SweepNumbers
sweepMultiModel()
{
    SweepNumbers s;
    s.name = "multimodel_mnicoc";
    HardwareConfig hw; // The paper's MN+ICOC deployment default.
    Model mbv2 = makeMobileNetV2();
    Model effnet = makeEfficientNetV2();
    Model bert = makeBert();
    std::vector<const Model *> zoo = {&mbv2, &effnet, &bert};

    dse::DseOptions naive;
    naive.threads = 1;
    naive.eval = naivePolicy();
    dse::DseEngine naiveEngine(naive);
    auto t0 = std::chrono::steady_clock::now();
    ScheduleResult na = naiveEngine.mapModel(hw, mbv2);
    ScheduleResult ne = naiveEngine.mapModel(hw, effnet);
    ScheduleResult nb = naiveEngine.mapModel(hw, bert);
    s.naiveWallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    s.naiveModelEvals =
        naiveEngine.evaluator().counters().modelEvals;

    dse::DseOptions opt;
    opt.threads = 1;
    dse::DseEngine engine(opt);
    std::vector<ScheduleResult> shared =
        measure(&s, engine, [&] { return engine.mapZoo(hw, zoo); });
    s.identicalOutput = shared.size() == 3 &&
                        sameSchedule(na, shared[0]) &&
                        sameSchedule(ne, shared[1]) &&
                        sameSchedule(nb, shared[2]);
    return s;
}

/**
 * The serving scenario (the lego_serve driver's workload, tracked):
 * replay the demo request trace — MobileNetV2 + EfficientNetV2 +
 * BERT under varying objectives, budgets, and K — through a cold
 * ServeLoop that flushes its cache on shutdown, then through a
 * fresh loop warm-started from the flushed file. The baseline gate
 * covers model_evals of the WARM pass, which must stay at 0, and the
 * pass must run no frontier sweep: a warm serve replay re-evaluates
 * nothing; every answer comes out of the persisted frontier memo,
 * bit-identical to the cold pass.
 */
SweepNumbers
sweepServeReplay()
{
    SweepNumbers s;
    s.name = "serve_replay";
    const std::string cachePath = "bench_serve_replay.cache.tmp";
    std::remove(cachePath.c_str());
    const std::vector<serve::ServeRequest> trace =
        serve::demoTrace();

    // Returns the frontier sweeps the pass's fresh engine ran.
    auto runPass = [&](std::vector<serve::ServeResponse> *out) {
        serve::ServeOptions sopt;
        sopt.hw.name = "LEGO-SERVE";
        sopt.dse.threads = 1;
        sopt.dse.cachePath = cachePath;
        serve::ServeLoop loop(sopt);
        for (const serve::ServeRequest &req : trace)
            loop.submit(req);
        loop.drain();
        *out = loop.responses();
        loop.shutdown();
        return loop.engine().evaluator().counters().searches;
    };

    std::vector<serve::ServeResponse> cold, warm;
    auto t0 = std::chrono::steady_clock::now();
    runPass(&cold);
    s.naiveWallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    t0 = std::chrono::steady_clock::now();
    s.eval.searches = runPass(&warm);
    s.wallSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    std::remove(cachePath.c_str());

    // Stats accumulate over every compared request regardless of
    // identity, so a diverging replay still reports complete
    // counters next to its identical_output = false.
    std::uint64_t frontHits = 0, frontLookups = 0;
    std::vector<double> warmLatencyMs;
    bool identical = cold.size() == warm.size();
    const std::size_t n = std::min(cold.size(), warm.size());
    for (std::size_t i = 0; i < n; ++i) {
        const dse::DseStats &cs = cold[i].stats.dse;
        const dse::DseStats &ws = warm[i].stats.dse;
        warmLatencyMs.push_back(ws.wallSeconds * 1e3);
        s.naiveModelEvals += cs.modelEvals;
        s.eval.modelEvals += ws.modelEvals;
        s.cache.l0Hits += ws.l0Hits;
        s.cache.l0Misses += ws.l0Misses;
        s.cache.hits += ws.hits;
        s.cache.misses += ws.misses;
        s.eval.layersDeduped += ws.layersDeduped;
        s.eval.crossModelDeduped += ws.crossModelDeduped;
        frontHits += ws.frontHits;
        frontLookups += ws.frontHits + ws.frontMisses;
        // No request in this sweep carries a deadline and the queue
        // is unbounded, so a degraded or shed response here means
        // the robustness plumbing leaked into the exact path — fail
        // through the identical_output gate (no JSON schema change).
        identical = identical && warm[i].ok && !warm[i].degraded &&
                    !warm[i].shed && !cold[i].degraded &&
                    !cold[i].shed &&
                    serve::sameResponse(cold[i], warm[i]);
        for (const ScheduleResult &sched : warm[i].schedules)
            s.frontierPoints += sched.compose.frontierPoints;
    }
    s.warmFrontHitRate =
        frontLookups ? double(frontHits) / double(frontLookups) : 0;
    s.p50Ms = obs::percentileOf(warmLatencyMs, 0.50);
    s.p95Ms = obs::percentileOf(warmLatencyMs, 0.95);
    s.p99Ms = obs::percentileOf(warmLatencyMs, 0.99);
    s.identicalOutput = identical;
    return s;
}

/**
 * Bounded-cache eviction numbers (schema 6's cache_eviction
 * section). A frontier-valued zoo replay is first run unbounded to
 * size its working set, pin its frontiers and the ideal warm
 * frontier-hit rate, then rerun under two byte caps:
 *  - HALF the working set — a 2x-over-capacity replay. The bound
 *    must be real (evictions), respected (resident <= cap), and must
 *    never change an answer: every warm frontier equals the
 *    unbounded one.
 *  - kHitRateCapBytes, the bound this sweep used while each tiling
 *    was memoized too (half of that era's 598,128 B working set).
 *    The warm frontier-hit rate must stay within 10 points of the
 *    unbounded ideal there.
 */
struct EvictionNumbers
{
    std::uint64_t workingSetBytes = 0; //!< Unbounded resident bytes.
    std::uint64_t capBytes = 0;        //!< Bound: workingSet / 2.
    std::uint64_t evictions = 0;       //!< Under capBytes.
    std::uint64_t residentBytes = 0;   //!< After the capBytes replay.
    bool identicalFrontiers = false;   //!< capBytes warm == unbounded.
    double unboundedWarmRate = 0; //!< Ideal warm frontier-hit rate.
    double boundedWarmRate = 0;   //!< Same replay, kHitRateCapBytes.
    bool ok = false;
};

constexpr std::uint64_t kHitRateCapBytes = 299064;

EvictionNumbers
sweepCacheEviction()
{
    EvictionNumbers n;
    HardwareConfig hw;
    const Model mobilenet = makeMobileNetV2();
    const Model effnet = makeEfficientNetV2();
    const Model bert = makeBert();
    const std::vector<const Model *> zoo = {&mobilenet, &effnet,
                                            &bert};
    constexpr std::size_t kFront = 4;

    using Fronts = std::vector<std::vector<dse::MappingFrontier>>;
    auto replay = [&](dse::Evaluator &ev) {
        Fronts out;
        for (const Model *m : zoo)
            out.push_back(ev.mapModelFrontier(hw, *m, kFront));
        return out;
    };
    // Warm passes run on a FRESH thread: L0 is thread-local, so a
    // new thread's empty L0 forces every lookup through the bounded
    // L1 — the tier whose eviction policy is under test. Rates off
    // the same-thread L0 would flatter any policy.
    auto warmPass = [&](dse::Evaluator &ev, dse::CostCache &cache,
                        Fronts *fronts) {
        const dse::CacheCounters before = cache.counters();
        std::thread t([&] { *fronts = replay(ev); });
        t.join();
        const dse::CacheCounters d = cache.counters() - before;
        const std::uint64_t lookups = d.frontHits + d.frontMisses;
        return lookups ? double(d.frontHits) / double(lookups) : 0.0;
    };
    auto sameFronts = [](const Fronts &a, const Fronts &b) {
        if (a.size() != b.size())
            return false;
        for (std::size_t m = 0; m < a.size(); ++m) {
            if (a[m].size() != b[m].size())
                return false;
            for (std::size_t l = 0; l < a[m].size(); ++l) {
                const auto &pa = a[m][l].points(), &pb = b[m][l].points();
                if (pa.size() != pb.size())
                    return false;
                for (std::size_t i = 0; i < pa.size(); ++i)
                    if (pa[i].seq != pb[i].seq ||
                        pa[i].result.cycles != pb[i].result.cycles ||
                        pa[i].result.energyPj != pb[i].result.energyPj)
                        return false;
            }
        }
        return true;
    };

    Fronts ideal;
    {
        dse::CostCache cache; // Unbounded working-set baseline.
        dse::Evaluator ev(&cache);
        ideal = replay(ev);
        n.workingSetBytes = cache.residentBytes();
        Fronts warm;
        n.unboundedWarmRate = warmPass(ev, cache, &warm);
    }
    {
        dse::CostCache cache;
        cache.setCapacity(kHitRateCapBytes, 0);
        dse::Evaluator ev(&cache);
        replay(ev);
        Fronts warm;
        n.boundedWarmRate = warmPass(ev, cache, &warm);
    }

    n.capBytes = n.workingSetBytes / 2;
    dse::CostCache cache;
    cache.setCapacity(n.capBytes, 0);
    dse::Evaluator ev(&cache);
    replay(ev); // Cold: fills past the bound, eviction batches fire.
    Fronts warm;
    warmPass(ev, cache, &warm);
    n.evictions = cache.counters().evictions;
    n.residentBytes = cache.residentBytes();
    n.identicalFrontiers = sameFronts(ideal, warm);
    n.ok = n.evictions > 0 && n.residentBytes <= n.capBytes &&
           n.identicalFrontiers &&
           n.boundedWarmRate >= n.unboundedWarmRate - 0.10;
    return n;
}

/**
 * Segment-valued scheduling on a bandwidth-lean box: RN50 with
 * 4 GB/s DRAM, where inter-layer spatial pipelining (streaming
 * intermediates through SRAM + NoC instead of DRAM) actually pays.
 * "Naive" is the serial layer-valued composition (segmentation
 * off); the optimized run searches segment plans and composes from
 * them. Two gates ride on this sweep:
 *  - identical_output: segmentation *disabled* on a 4-worker engine
 *    must reproduce the serial 1-worker schedule bit-identically
 *    (the degenerate path really is the classical path),
 *  - latency_ratio / energy_ratio < 1 with >= 1 pipelined segment:
 *    the segmented schedule strictly dominates serial on both axes.
 */
SweepNumbers
sweepSegmentPipeline(const Model &rn50)
{
    SweepNumbers s;
    s.name = "segment_pipeline_rn50";
    HardwareConfig hw;
    hw.dram.bandwidthGBs = 2.0; // Bandwidth-starved: DRAM-bound.

    // Serial baseline: layer-valued composition, one worker.
    dse::DseOptions serialOpt;
    serialOpt.threads = 1;
    dse::DseEngine serialEngine(serialOpt);
    auto t0 = std::chrono::steady_clock::now();
    ScheduleResult serial = serialEngine.mapModelComposed(hw, rn50);
    s.naiveWallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    s.naiveModelEvals =
        serialEngine.evaluator().counters().modelEvals;

    // Disabled-path identity at a different worker count.
    dse::DseOptions offOpt;
    offOpt.threads = 4;
    dse::DseEngine offEngine(offOpt);
    ScheduleResult off = offEngine.mapModelComposed(hw, rn50);
    s.identicalOutput = sameSchedule(serial, off);

    // Segmented run: same box, segmentation on.
    dse::DseOptions segOpt;
    segOpt.threads = 1;
    segOpt.compose.segment.enable = true;
    dse::DseEngine segEngine(segOpt);
    ScheduleResult seg =
        measure(&s, segEngine,
                [&] { return segEngine.mapModelComposed(hw, rn50); });

    for (const Segment &g : seg.segments)
        if (g.pipelined())
            ++s.pipelinedSegments;
    s.latencyRatio = double(seg.summary.totalCycles) /
                     double(serial.summary.totalCycles);
    s.energyRatio =
        seg.summary.totalEnergyPj / serial.summary.totalEnergyPj;
    return s;
}

/**
 * The measured disabled-tracing overhead figure: with tracing
 * compiled in but runtime-disabled, a span costs one relaxed atomic
 * load + branch. Overhead is derived — (spans the headline sweep
 * emits) x (per-disabled-span cost) / (headline wall) — instead of
 * differencing two full-sweep walls, whose run-to-run noise exceeds
 * the ~0.001% signal by orders of magnitude.
 */
struct TracingProbe
{
    bool compiledIn = false;
    double disabledSpanNs = 0;  //!< Cost of one disabled span.
    std::uint64_t headlineSpans = 0; //!< Events the headline sweep emits.
    double overheadPct = 0;     //!< Derived share of headline wall.
};

TracingProbe
measureTracingOverhead(const Model &rn50, double headlineWall,
                       const std::string &traceOut)
{
    TracingProbe probe;
#if LEGO_TRACE
    probe.compiledIn = true;

    // Per-span disabled cost: best of several tight batches (min, so
    // scheduler noise only ever inflates individual batches away).
    constexpr int kReps = 5;
    constexpr std::uint64_t kIters = 1 << 20;
    double bestSec = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < kIters; ++i) {
            LEGO_TRACE_SPAN("bench.disabled", "bench");
        }
        const double sec =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        bestSec = std::min(bestSec, sec);
    }
    probe.disabledSpanNs = bestSec / double(kIters) * 1e9;

    // Span count: rerun the headline sweep with tracing enabled and
    // count everything recorded (drops included — dropped events
    // still paid their record cost).
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.clear();
    obs::Tracer::setEnabled(true);
    const std::uint64_t before = tracer.recorded();
    dse::CandidateSpace space = dse::eyerissEquivalentSpace();
    dse::DseOptions opt;
    opt.threads = 1;
    dse::DseEngine engine(opt);
    engine.explore(space, rn50);
    probe.headlineSpans = tracer.recorded() - before;
    obs::Tracer::setEnabled(false);
    // Mirror the rerun engine's counters for --stats-out snapshots.
    engine.publishMetrics(obs::MetricsRegistry::global());
    if (!traceOut.empty() &&
        !tracer.writeJson(traceOut, "{\"build\": " +
                                        obs::buildInfo().toJson() +
                                        "}"))
        std::printf("warning: cannot write trace to %s\n",
                    traceOut.c_str());

    if (headlineWall > 0)
        probe.overheadPct = 100.0 * double(probe.headlineSpans) *
                            probe.disabledSpanNs * 1e-9 /
                            headlineWall;
#else
    (void)rn50;
    (void)headlineWall;
    (void)traceOut;
#endif
    return probe;
}

void
writeLoadConfig(std::ofstream &out, const char *name,
                const bench::LoadPassResult &p, bool last)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "      {\"name\": \"%s\", "
                  "\"requests_per_sec\": %.1f, "
                  "\"p50_ms\": %.4f, \"p95_ms\": %.4f, "
                  "\"p99_ms\": %.4f, \"coalesce_rate\": %.4f, "
                  "\"shed_rate\": %.4f}%s\n",
                  name, p.requestsPerSec, p.p50Ms, p.p95Ms, p.p99Ms,
                  p.coalesceRate, p.shedRate, last ? "" : ",");
    out << buf;
}

void
writeJson(const std::string &path,
          const std::vector<SweepNumbers> &sweeps,
          const TracingProbe &probe,
          const bench::ServeLoadNumbers &load,
          const EvictionNumbers &evict)
{
    std::ofstream out(path);
    out << "{\n";
    out << "  \"bench\": \"bench_dse_perf\",\n";
    out << "  \"schema\": 6,\n";
    out << "  \"build\": " << obs::buildInfo().toJson() << ",\n";
    {
        // Schema 6: the cache_eviction section — the bounded-cache
        // replay at half the measured working set (evictions, byte
        // budget, identical frontiers) and the warm frontier-hit
        // rate at the fixed hit_rate_cap_bytes.
        char buf[640];
        std::snprintf(
            buf, sizeof(buf),
            "  \"cache_eviction\": {\n"
            "    \"working_set_bytes\": %llu,\n"
            "    \"cap_bytes\": %llu,\n"
            "    \"evictions\": %llu,\n"
            "    \"resident_bytes\": %llu,\n"
            "    \"identical_frontiers\": %s,\n"
            "    \"hit_rate_cap_bytes\": %llu,\n"
            "    \"unbounded_warm_front_hit_rate\": %.4f,\n"
            "    \"bounded_warm_front_hit_rate\": %.4f,\n"
            "    \"ok\": %s\n  },\n",
            (unsigned long long)evict.workingSetBytes,
            (unsigned long long)evict.capBytes,
            (unsigned long long)evict.evictions,
            (unsigned long long)evict.residentBytes,
            evict.identicalFrontiers ? "true" : "false",
            (unsigned long long)kHitRateCapBytes,
            evict.unboundedWarmRate, evict.boundedWarmRate,
            evict.ok ? "true" : "false");
        out << buf;
    }
    {
        // Schema 4: the serve_load section — the concurrent-serving
        // matrix (cold/warm x maxInFlight {1, 4}) with its identity
        // and coalescing-payoff gates. warm_speedup is the tracked,
        // machine-independent number the baseline gate rides on.
        char buf[256];
        std::snprintf(
            buf, sizeof(buf),
            "  \"serve_load\": {\n"
            "    \"requests\": %llu,\n"
            "    \"identical_responses\": %s,\n"
            "    \"follower_model_evals\": %llu,\n"
            "    \"warm_speedup\": %.2f,\n"
            "    \"configs\": [\n",
            (unsigned long long)load.requests,
            load.identicalResponses ? "true" : "false",
            (unsigned long long)load.followerEvals,
            load.warmSpeedup);
        out << buf;
        writeLoadConfig(out, "w1_cold", load.w1Cold, false);
        writeLoadConfig(out, "w1_warm", load.w1Warm, false);
        writeLoadConfig(out, "w4_cold", load.w4Cold, false);
        writeLoadConfig(out, "w4_warm", load.w4Warm, true);
        out << "    ]\n  },\n";
    }
    {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "  \"tracing\": {\"compiled_in\": %s, "
                      "\"disabled_span_ns\": %.3f, "
                      "\"headline_spans\": %llu, "
                      "\"disabled_overhead_pct\": %.6f},\n",
                      probe.compiledIn ? "true" : "false",
                      probe.disabledSpanNs,
                      (unsigned long long)probe.headlineSpans,
                      probe.overheadPct);
        out << buf;
    }
    out << "  \"sweeps\": [\n";
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
        const SweepNumbers &s = sweeps[i];
        char buf[1536];
        std::snprintf(
            buf, sizeof(buf),
            "    {\n"
            "      \"name\": \"%s\",\n"
            "      \"model_evals\": %llu,\n"
            "      \"naive_model_evals\": %llu,\n"
            "      \"eval_reduction\": %.2f,\n"
            "      \"searches\": %llu,\n"
            "      \"l0_hits\": %llu,\n"
            "      \"l0_misses\": %llu,\n"
            "      \"l1_hits\": %llu,\n"
            "      \"l1_misses\": %llu,\n"
            "      \"mappings_pruned\": %llu,\n"
            "      \"dataflows_pruned\": %llu,\n"
            "      \"layers_deduped\": %llu,\n"
            "      \"cross_model_deduped\": %llu,\n"
            "      \"frontier_points\": %llu,\n"
            "      \"warm_front_hit_rate\": %.4f,\n"
            "      \"wall_seconds\": %.4f,\n"
            "      \"naive_wall_seconds\": %.4f,\n"
            "      \"p50_ms\": %.4f,\n"
            "      \"p95_ms\": %.4f,\n"
            "      \"p99_ms\": %.4f,\n"
            "      \"pipelined_segments\": %llu,\n"
            "      \"latency_ratio\": %.4f,\n"
            "      \"energy_ratio\": %.4f,\n"
            "      \"identical_output\": %s\n"
            "    }%s\n",
            s.name.c_str(), (unsigned long long)s.eval.modelEvals,
            (unsigned long long)s.naiveModelEvals, s.reduction(),
            (unsigned long long)s.eval.searches,
            (unsigned long long)s.cache.l0Hits,
            (unsigned long long)s.cache.l0Misses,
            (unsigned long long)s.cache.hits,
            (unsigned long long)s.cache.misses,
            (unsigned long long)s.eval.mappingsPruned,
            (unsigned long long)s.eval.dataflowsPruned,
            (unsigned long long)s.eval.layersDeduped,
            (unsigned long long)s.eval.crossModelDeduped,
            (unsigned long long)s.frontierPoints,
            s.warmFrontHitRate, s.wallSeconds,
            s.naiveWallSeconds, s.p50Ms, s.p95Ms, s.p99Ms,
            (unsigned long long)s.pipelinedSegments, s.latencyRatio,
            s.energyRatio, s.identicalOutput ? "true" : "false",
            i + 1 < sweeps.size() ? "," : "");
        out << buf;
    }
    out << "  ]\n}\n";
}

/**
 * Pull "model_evals" for a named sweep out of a committed
 * BENCH_dse.json. Minimal scanner for the flat format writeJson
 * emits — not a general JSON parser. Returns false when the sweep
 * is absent.
 */
bool
baselineModelEvals(const std::string &text, const std::string &sweep,
                   std::uint64_t *out)
{
    std::string tag = "\"name\": \"" + sweep + "\"";
    std::size_t at = text.find(tag);
    if (at == std::string::npos)
        return false;
    std::size_t key = text.find("\"model_evals\":", at);
    if (key == std::string::npos)
        return false;
    *out = std::strtoull(
        text.c_str() + key + std::strlen("\"model_evals\":"), nullptr,
        10);
    return true;
}

/** The committed serve_load warm_speedup (schema 4). False on a
 *  schema-3 baseline — the gate then simply doesn't arm. */
bool
baselineWarmSpeedup(const std::string &text, double *out)
{
    std::size_t at = text.find("\"serve_load\"");
    if (at == std::string::npos)
        return false;
    std::size_t key = text.find("\"warm_speedup\":", at);
    if (key == std::string::npos)
        return false;
    *out = std::strtod(
        text.c_str() + key + std::strlen("\"warm_speedup\":"),
        nullptr);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string outPath = "BENCH_dse.json";
    std::string baselinePath, traceOut, statsOut;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--baseline") && i + 1 < argc)
            baselinePath = argv[++i];
        else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            outPath = argv[++i];
        else if (!std::strcmp(argv[i], "--trace-out") && i + 1 < argc)
            traceOut = argv[++i];
        else if (!std::strcmp(argv[i], "--stats-out") && i + 1 < argc)
            statsOut = argv[++i];
    }
    std::printf("%s\n", obs::buildInfo().oneLine().c_str());
    // Read the baseline up front: the default output path overwrites
    // the committed file the baseline is usually read from.
    std::string baselineText;
    if (!baselinePath.empty()) {
        std::ifstream in(baselinePath);
        std::stringstream ss;
        ss << in.rdbuf();
        baselineText = ss.str();
        if (baselineText.empty())
            std::printf("warning: baseline %s missing or empty\n",
                        baselinePath.c_str());
    }

    Model rn50 = makeResNet50();
    std::vector<SweepNumbers> sweeps;
    sweeps.push_back(sweepTimeloopExhaustive(rn50));
    sweeps.push_back(sweepMappingSearch(rn50));
    sweeps.push_back(sweepMappingSearchWarm(rn50));
    sweeps.push_back(sweepBert());
    sweeps.push_back(sweepFrontierSearch(rn50));
    sweeps.push_back(sweepMultiModel());
    sweeps.push_back(sweepSegmentPipeline(rn50));
    sweeps.push_back(sweepServeReplay());

    bool ok = true;
    for (const SweepNumbers &s : sweeps) {
        std::printf("=== %s ===\n", s.name.c_str());
        std::printf("model evals: %llu (naive %llu, %.1fx "
                    "reduction)\n",
                    (unsigned long long)s.eval.modelEvals,
                    (unsigned long long)s.naiveModelEvals,
                    s.reduction());
        std::printf("cache: L0 %llu hits / %llu misses, L1 %llu "
                    "hits / %llu misses\n",
                    (unsigned long long)s.cache.l0Hits,
                    (unsigned long long)s.cache.l0Misses,
                    (unsigned long long)s.cache.hits,
                    (unsigned long long)s.cache.misses);
        std::printf("pruned: %llu tilings (%llu whole dataflows), "
                    "deduped: %llu layer instances (%llu "
                    "cross-model)\n",
                    (unsigned long long)s.eval.mappingsPruned,
                    (unsigned long long)s.eval.dataflowsPruned,
                    (unsigned long long)s.eval.layersDeduped,
                    (unsigned long long)s.eval.crossModelDeduped);
        std::printf("wall: %.3fs (naive %.3fs)\n", s.wallSeconds,
                    s.naiveWallSeconds);
        std::printf("identical output: %s\n\n",
                    s.identicalOutput ? "yes" : "NO");
        if (!s.identicalOutput) {
            std::printf("FAIL: %s diverged from the naive sweep\n",
                        s.name.c_str());
            ok = false;
        }
        if (!baselineText.empty()) {
            std::uint64_t base = 0;
            if (baselineModelEvals(baselineText, s.name, &base)) {
                // >10% regression in evaluation count fails CI.
                if (double(s.eval.modelEvals) > 1.10 * double(base)) {
                    std::printf("FAIL: %s model_evals %llu regressed "
                                ">10%% over baseline %llu\n",
                                s.name.c_str(),
                                (unsigned long long)s.eval.modelEvals,
                                (unsigned long long)base);
                    ok = false;
                }
            }
        }
    }

    // The headline acceptance number: the hardware-DSE sweep must do
    // >= 10x fewer performance-model evaluations than the naive
    // exhaustive path at identical output.
    if (sweeps[0].reduction() < 10.0) {
        std::printf("FAIL: %s reduction %.1fx < 10x\n",
                    sweeps[0].name.c_str(), sweeps[0].reduction());
        ok = false;
    }

    // The serving acceptance number: a warm serve replay must hit
    // >= 90% of its frontier lookups (it actually hits 100%),
    // re-evaluate nothing and sweep nothing.
    const SweepNumbers &serveSweep = sweeps.back();
    if (serveSweep.warmFrontHitRate < 0.90) {
        std::printf("FAIL: %s warm frontier hit rate %.1f%% < 90%%\n",
                    serveSweep.name.c_str(),
                    100.0 * serveSweep.warmFrontHitRate);
        ok = false;
    }
    if (serveSweep.eval.modelEvals != 0) {
        std::printf("FAIL: %s warm pass ran %llu model evaluations "
                    "(want 0)\n",
                    serveSweep.name.c_str(),
                    (unsigned long long)serveSweep.eval.modelEvals);
        ok = false;
    }
    if (serveSweep.eval.searches != 0) {
        std::printf("FAIL: %s warm pass ran %llu frontier sweeps "
                    "(want 0)\n",
                    serveSweep.name.c_str(),
                    (unsigned long long)serveSweep.eval.searches);
        ok = false;
    }

    // The segmentation acceptance number: on the bandwidth-lean box
    // the segmented RN50 schedule must carry >= 1 pipelined segment
    // and strictly dominate the serial composition on both latency
    // and energy. (identical_output above already pinned the
    // disabled path to the serial bits at a different worker count.)
    const SweepNumbers &segSweep = sweeps[sweeps.size() - 2];
    std::printf("%s: %llu pipelined segments, latency ratio %.4f, "
                "energy ratio %.4f\n",
                segSweep.name.c_str(),
                (unsigned long long)segSweep.pipelinedSegments,
                segSweep.latencyRatio, segSweep.energyRatio);
    if (segSweep.pipelinedSegments == 0) {
        std::printf("FAIL: %s accepted no pipelined segments\n",
                    segSweep.name.c_str());
        ok = false;
    }
    if (segSweep.latencyRatio >= 1.0 || segSweep.energyRatio >= 1.0) {
        std::printf("FAIL: %s segmented schedule does not strictly "
                    "dominate serial (latency %.4f, energy %.4f; "
                    "want both < 1)\n",
                    segSweep.name.c_str(), segSweep.latencyRatio,
                    segSweep.energyRatio);
        ok = false;
    }

    // The observability acceptance number: tracing compiled in but
    // disabled must cost <= 2% of the headline sweep's wall time.
    const TracingProbe probe = measureTracingOverhead(
        rn50, sweeps[0].wallSeconds, traceOut);
    std::printf("tracing: %s, disabled span %.2fns, headline emits "
                "%llu events -> disabled overhead %.5f%%\n",
                probe.compiledIn ? "compiled in" : "compiled out",
                probe.disabledSpanNs,
                (unsigned long long)probe.headlineSpans,
                probe.overheadPct);
    if (probe.overheadPct > 2.0) {
        std::printf("FAIL: disabled-tracing overhead %.3f%% > 2%%\n",
                    probe.overheadPct);
        ok = false;
    }
    std::printf("serve_replay warm latency: p50 %.2fms p95 %.2fms "
                "p99 %.2fms\n",
                serveSweep.p50Ms, serveSweep.p95Ms, serveSweep.p99Ms);

    // The concurrent-serving matrix (schema 4's serve_load section):
    // the duplicate-burst trace cold and warm at maxInFlight 1
    // (historic loop) and 4 + coalescing. Bit-identical response
    // sets and zero follower work are hard gates; the coalescing
    // throughput payoff gates absolutely (>= 1.5x warm) and against
    // the committed baseline (> 10% regression fails) — as a ratio,
    // so the gate travels between machines.
    const bench::ServeLoadNumbers load = bench::runLoadMatrix(
        bench::loadTrace(2400), "bench_dse_perf_serve_load");
    std::printf("serve_load: %llu requests, identical %s, follower "
                "evals %llu, warm w4/w1 speedup %.2fx "
                "(w4 warm: %.0f req/s, p99 %.2fms, coalesce "
                "%.1f%%)\n",
                (unsigned long long)load.requests,
                load.identicalResponses ? "yes" : "NO",
                (unsigned long long)load.followerEvals,
                load.warmSpeedup, load.w4Warm.requestsPerSec,
                load.w4Warm.p99Ms, 100.0 * load.w4Warm.coalesceRate);
    if (!load.identicalResponses) {
        std::printf("FAIL: serve_load response sets diverged across "
                    "configurations\n");
        ok = false;
    }
    if (load.followerEvals != 0) {
        std::printf("FAIL: serve_load coalesced followers ran %llu "
                    "model evaluations (want 0)\n",
                    (unsigned long long)load.followerEvals);
        ok = false;
    }
    if (load.warmSpeedup < 1.5) {
        std::printf("FAIL: serve_load warm coalescing speedup "
                    "%.2fx < 1.5x\n",
                    load.warmSpeedup);
        ok = false;
    }
    if (!baselineText.empty()) {
        double base = 0;
        if (baselineWarmSpeedup(baselineText, &base) &&
            load.warmSpeedup < 0.90 * base) {
            std::printf("FAIL: serve_load warm_speedup %.2fx "
                        "regressed >10%% against baseline %.2fx\n",
                        load.warmSpeedup, base);
            ok = false;
        }
    }

    // The bounded-cache acceptance number (schema 6's cache_eviction
    // section): a frontier replay at 2x over capacity must evict
    // (the bound is real), respect the byte budget and answer
    // exactly the unbounded frontiers; at kHitRateCapBytes it must
    // answer warm frontier lookups within 10 points of the unbounded
    // ideal.
    const EvictionNumbers evict = sweepCacheEviction();
    std::printf("cache_eviction: working set %llu B, cap %llu B: "
                "%llu evictions, %llu B resident, frontiers %s; "
                "warm frontier hit rate %.1f%% at %llu B vs %.1f%% "
                "unbounded\n",
                (unsigned long long)evict.workingSetBytes,
                (unsigned long long)evict.capBytes,
                (unsigned long long)evict.evictions,
                (unsigned long long)evict.residentBytes,
                evict.identicalFrontiers ? "identical" : "DIVERGED",
                100.0 * evict.boundedWarmRate,
                (unsigned long long)kHitRateCapBytes,
                100.0 * evict.unboundedWarmRate);
    if (!evict.ok) {
        std::printf("FAIL: cache_eviction bounded replay (want "
                    "evictions > 0, resident <= cap, identical "
                    "frontiers, warm rate at %llu B >= unbounded - "
                    "0.10)\n",
                    (unsigned long long)kHitRateCapBytes);
        ok = false;
    }

    if (!statsOut.empty()) {
        std::ofstream stats(statsOut, std::ios::trunc);
        if (stats)
            stats << "{\n  \"build\": " << obs::buildInfo().toJson()
                  << ",\n  \"process\": "
                  << obs::MetricsRegistry::global()
                         .snapshot()
                         .toJson()
                  << "\n}\n";
        else
            std::printf("warning: cannot write stats to %s\n",
                        statsOut.c_str());
    }

    writeJson(outPath, sweeps, probe, load, evict);
    std::printf("wrote %s\n", outPath.c_str());
    return ok ? 0 : 1;
}
