/**
 * @file
 * serve_zoo: a seeded request trace through serve::ServeLoop. One op
 * is one request.
 *
 * The distinct request keys form a fixed pool (single-model and
 * three-model zoos over all registry models, both objectives,
 * budgets calibrated between each model's extremes, K in {1, 4, 8},
 * some segment-search and some deadline keys). The trace holds every
 * pool key twice, so half the requests are first-seen keys and half
 * are repeats; --seed orders the trace and draws the Poisson arrival
 * schedule. The loop sees only the formatted request lines. Its L1
 * cache bound sits below the trace's working set, so entries are
 * evicted during a pass.
 *
 * Two phases, each pass on a fresh loop:
 *  - open loop: lines are submitted at their due times at a fixed
 *    offered rate, and latency runs from the due time to the answer;
 *  - closed loop: 2 x maxInFlight requests are kept outstanding, and
 *    the next line goes in as soon as an answer is emitted (capacity).
 * Every response must equal the serial replay's (maxInFlight = 1,
 * one worker thread) of the same trace.
 */

#include <limits>
#include <memory>
#include <set>
#include <thread>

#include "checks.hh"
#include "common.hh"

namespace perfbench
{

namespace
{

using lego::serve::Objective;
using lego::serve::ServeLoop;
using lego::serve::ServeOptions;
using lego::serve::ServeRequest;
using lego::serve::ServeResponse;

/** Distinct request keys; the trace holds each twice. */
constexpr std::size_t kDistinctKeys = 500;
/** Open-loop offered rate, requests per second: a quarter of the
 *  closed-loop capacity on a quiet 4-vCPU VM (ops_per_s, 2400-2500
 *  req/s), so it stays at about half the capacity when contention on
 *  the host halves it. */
constexpr double kOfferedRps = 625;
/** L1 cache bound: below the working set of one pass. */
constexpr std::uint64_t kCacheMaxBytes = 1024 * 1024;
/** Generous deadline: armed, never expires (no degradation). */
constexpr double kDeadlineMs = 60000;

ServeOptions
serveOptions(std::size_t inFlight)
{
    ServeOptions o;
    o.hw.name = "LEGO-PERFBENCH";
    o.dse.threads = 1;
    o.dse.cacheMaxBytes = kCacheMaxBytes;
    o.maxInFlight = inFlight;
    o.coalesce = inFlight > 1;
    o.stallTimeoutMs = 0; // No watchdog thread.
    return o;
}

/** Serve `lines` one at a time on one worker thread: the reference
 *  every served response is checked against. */
std::vector<ServeResponse>
serveSerially(const std::vector<std::string> &lines)
{
    ServeLoop loop(serveOptions(1));
    for (std::size_t i = 0; i < lines.size(); ++i)
        loop.submitLine(lines[i], i + 1);
    loop.drain();
    std::vector<ServeResponse> out = loop.responses();
    loop.shutdown();
    return out;
}

/** One registry model's composition extremes at K = 8: the range
 *  budgets are drawn from (as lego_serve --calibrate prints it). */
struct Extremes
{
    double fastCycles = 0, fastEnergyPj = 0; //!< Best latency.
    double leanCycles = 0, leanEnergyPj = 0; //!< Min energy.
};

/** Calibrate every registry model's extremes through the serving
 *  loop: an unbudgeted latency and an unbudgeted energy request. */
std::vector<Extremes>
calibrate(const std::vector<std::string> &names)
{
    std::vector<std::string> lines;
    for (const std::string &name : names)
        for (Objective o : {Objective::Latency, Objective::Energy}) {
            ServeRequest r;
            r.models = {name};
            r.objective = o;
            r.frontierK = 8;
            lines.push_back(lego::serve::formatRequest(r));
        }
    const std::vector<ServeResponse> rs = serveSerially(lines);
    std::vector<Extremes> out(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        const lego::RunSummary &fast =
            rs.at(2 * i).schedules.at(0).summary;
        const lego::RunSummary &lean =
            rs.at(2 * i + 1).schedules.at(0).summary;
        out[i] = {double(fast.totalCycles), fast.totalEnergyPj,
                  double(lean.totalCycles), lean.totalEnergyPj};
    }
    return out;
}

/**
 * The fixed key pool. Its generator seed is a constant: the pool is
 * part of the workload's definition, not of the run's seed. The mix
 * follows the repo's demo trace (serve::demoTrace, the generator of
 * examples/serve_trace.jsonl): 2/3 single-model keys and 1/3
 * three-model zoos; 5/6 latency and 1/6 energy objective; 1/4 of the
 * keys budgeted, each budget placed between its model's two
 * extremes (so the composer trades, as in the demo trace; budgets go
 * on single-model keys because a budget applies to every model of a
 * zoo, and one model's range says nothing about another's); K = 1
 * for 1/3 of the keys and the demo's K = 8 share split evenly
 * between K = 4 and K = 8. The demo
 * trace has no segment or deadline keys; one key in ten asks for
 * `segment` and one in ten carries a deadline that never expires, so
 * each pass holds about a hundred of each.
 */
std::vector<ServeRequest>
keyPool(const std::vector<std::string> &names,
        const std::vector<Extremes> &ext)
{
    lego::dse::SplitMix64 rng(0x5e7e2001);
    std::vector<ServeRequest> pool;
    std::set<std::string> seen;
    while (pool.size() < kDistinctKeys) {
        ServeRequest r;
        const bool single = rng.below(3) != 0;
        while (r.models.size() < (single ? 1u : 3u)) {
            const std::string &m = names[rng.below(names.size())];
            if (std::find(r.models.begin(), r.models.end(), m) ==
                r.models.end())
                r.models.push_back(m);
        }
        r.objective =
            rng.below(6) ? Objective::Latency : Objective::Energy;
        static const std::size_t ks[] = {1, 4, 8};
        r.frontierK = ks[rng.below(3)];
        if (single && rng.below(8) < 3) {
            const std::size_t m =
                std::find(names.begin(), names.end(), r.models[0]) -
                names.begin();
            const double f = double(1 + rng.below(3)) / 4;
            const Extremes &e = ext[m];
            // Latency objective: energy cap in pJ; energy objective:
            // latency cap in cycles.
            r.budget = r.objective == Objective::Latency
                           ? e.leanEnergyPj +
                                 f * (e.fastEnergyPj - e.leanEnergyPj)
                           : e.fastCycles +
                                 f * (e.leanCycles - e.fastCycles);
        }
        r.segment = rng.below(10) == 0;
        if (rng.below(10) == 0)
            r.deadlineMs = kDeadlineMs;
        if (seen.insert(lego::serve::coalesceKey(r)).second)
            pool.push_back(std::move(r));
    }
    return pool;
}

struct Trace
{
    std::vector<std::string> lines;
    std::vector<std::size_t> key;  //!< Pool index of each line.
    std::vector<double> arrivalS;  //!< Due time from pass start.
};

Trace
makeTrace(const std::vector<ServeRequest> &pool, std::uint64_t seed)
{
    Trace t;
    for (std::size_t k = 0; k < pool.size(); ++k)
        t.key.insert(t.key.end(), {k, k});
    lego::dse::SplitMix64 rng(seed);
    shuffle(t.key, rng);
    double at = 0;
    for (std::size_t i = 0; i < t.key.size(); ++i) {
        ServeRequest r = pool[t.key[i]];
        r.id = "q" + std::to_string(i);
        t.lines.push_back(lego::serve::formatRequest(r));
        t.arrivalS.push_back(at);
        at += -std::log(1.0 - rng.unit()) / kOfferedRps;
    }
    return t;
}

/** What one open-loop pass measured. */
struct OpenPass
{
    std::vector<ServeResponse> responses;
    std::vector<double> latencyMs; //!< From due time; inf on failure.
    std::vector<double> lateMs;    //!< Generator lateness.
    lego::dse::CacheCounters cache;
    lego::dse::EvalCounters eval;
};

OpenPass
openLoop(const Trace &t, const ServeOptions &opt)
{
    using Clock = std::chrono::steady_clock;
    constexpr std::chrono::microseconds kSpin(200);
    OpenPass out;
    ServeLoop loop(opt);
    const std::size_t n = t.lines.size();
    std::vector<Clock::time_point> due(n), sent(n);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(t.arrivalS[i]));
        // Sleep to just before the due time, then spin: the sleep's
        // wake-up delay would otherwise be part of every latency.
        std::this_thread::sleep_until(due[i] - kSpin);
        while (Clock::now() < due[i]) {
        }
        sent[i] = Clock::now();
        loop.submitLine(t.lines[i], i + 1);
    }
    loop.drain();
    out.responses = loop.responses();
    out.cache = loop.engine().cache().counters();
    out.eval = loop.engine().evaluator().counters();
    loop.shutdown();

    // Tracer time of t0, for the per-request loadgen spans.
    const std::uint64_t tracerT0 =
        lego::obs::Tracer::nowNs() -
        std::uint64_t(std::chrono::duration_cast<
                          std::chrono::nanoseconds>(Clock::now() - t0)
                          .count());
    for (std::size_t i = 0; i < n; ++i) {
        const double lateMs =
            std::chrono::duration<double, std::milli>(sent[i] - due[i])
                .count();
        out.lateMs.push_back(lateMs);
        const ServeResponse &r = out.responses.at(i);
        const double ms = responseHealthy(r)
                              ? lateMs + r.latencyMs
                              : std::numeric_limits<double>::infinity();
        out.latencyMs.push_back(ms);
        if (lego::obs::Tracer::enabled() && responseHealthy(r))
            lego::obs::Tracer::instance().recordComplete(
                "loadgen.request", "bench",
                tracerT0 + std::uint64_t(t.arrivalS[i] * 1e9),
                std::uint64_t(ms * 1e6), "seq", i);
    }
    return out;
}

/**
 * Closed loop: a window of 2 x maxInFlight requests outstanding, and
 * the next line is submitted as soon as an answer is emitted. Each
 * server thread then has one request in service and one queued, so
 * it does not wait for the generator; and as answers are emitted in
 * sequence order, one stalled request does not stop the window at
 * once. A repeat still mostly arrives after its first occurrence was
 * answered and reads the frontier tier (or misses it if evicted)
 * instead of joining an in-flight leader. Returns the pass's wall
 * seconds.
 */
double
closedLoop(const Trace &t, const ServeOptions &opt,
           std::vector<ServeResponse> *responses)
{
    ServeLoop loop(opt);
    // Counts emitted responses (of every kind).
    const lego::obs::Counter &answered =
        loop.metrics().counter("serve.requests");
    const std::size_t window = 2 * opt.maxInFlight;
    const double t0 = nowS();
    for (std::size_t i = 0; i < t.lines.size(); ++i) {
        while (i - answered.value() >= window)
            std::this_thread::sleep_for(std::chrono::microseconds(20));
        loop.submitLine(t.lines[i], i + 1);
    }
    loop.drain();
    const double seconds = nowS() - t0;
    *responses = loop.responses();
    loop.shutdown();
    return seconds;
}

} // namespace

void
runServe(const Args &a, RunResult &r)
{
    const std::size_t clients = std::size_t(std::max(1, nproc() - 1));
    const ServeOptions opt = serveOptions(clients);
    Trace trace;
    // Loops built during set-up are shut down after it is timed.
    std::vector<std::unique_ptr<ServeLoop>> setupLoops;
    const std::vector<std::string> names =
        lego::serve::modelRegistryNames();
    std::vector<Extremes> ext;
    const double setup = medianSetup(21, [&] {
        ext = calibrate(names);
        trace = makeTrace(keyPool(names, ext), a.seed);
        setupLoops.push_back(std::make_unique<ServeLoop>(opt));
    });
    setupLoops.clear();

    const std::vector<ServeResponse> ref = serveSerially(trace.lines);
    printDigest("responses", "serial", responsesDigest(ref));

    // Closed and open passes alternate until the run is spent (at
    // least three of each), so both phases sample the whole run.
    std::vector<double> closedS;
    OpPercentiles ops;
    const double start = nowS();
    do {
        std::vector<ServeResponse> got;
        closedS.push_back(closedLoop(trace, opt, &got));
        checkResponses(got, ref, r.tally);
        OpenPass p = openLoop(trace, opt);
        checkResponses(p.responses, ref, r.tally);
        ops.addPass(p.latencyMs);
    } while (closedS.size() < 3 || nowS() - start < a.seconds);

    auto &m = r.metrics;
    if (a.trace) {
        // One traced closed pass for the tracing overhead; the
        // exported trace then holds one traced open-loop pass.
        lego::obs::Tracer::setEnabled(true);
        std::vector<ServeResponse> got;
        const double tracedClosedS = closedLoop(trace, opt, &got);
        checkResponses(got, ref, r.tally);
        lego::obs::Tracer::setEnabled(false);
        lego::obs::Tracer::instance().clear();
        lego::obs::Tracer::setEnabled(true);
        const double wait0 = histogramSum("pool.queue_wait_us");
        const double run0 = histogramSum("pool.run_us");
        const OpenPass p = openLoop(trace, opt);
        lego::obs::Tracer::setEnabled(false);
        checkResponses(p.responses, ref, r.tally);
        std::size_t coalesced = 0, shed = 0;
        for (const ServeResponse &s : p.responses) {
            coalesced += s.coalesced;
            shed += s.shed;
        }
        const double n = double(p.responses.size());
        m["dse.model_evals"] = double(p.eval.modelEvals);
        m["dse.cache.l0_hit_rate"] =
            hitRate(p.cache.l0Hits, p.cache.l0Misses);
        m["dse.cache.l1_hit_rate"] = hitRate(p.cache.hits, p.cache.misses);
        m["dse.cache.front_hit_rate"] =
            hitRate(p.cache.frontHits, p.cache.frontMisses);
        m["dse.cache.evictions"] = double(p.cache.evictions);
        m["dse.cache.resident_bytes"] = double(p.cache.residentBytes);
        m["pool.wait_s"] =
            (histogramSum("pool.queue_wait_us") - wait0) / 1e6;
        m["pool.run_s"] = (histogramSum("pool.run_us") - run0) / 1e6;
        m["serve.coalesce_rate"] = double(coalesced) / n;
        m["serve.shed_rate"] = double(shed) / n;
        m["loadgen.late_ms_p99"] = percentile(p.lateMs, 0.99);
        m["obs.trace_overhead_pct"] =
            (tracedClosedS / median(closedS) - 1) * 100;
        return;
    }

    // Quality of the answers, summed in pool order so the value does
    // not depend on the seed's trace order.
    std::vector<double> energyByKey(kDistinctKeys, 0);
    double cycles = 0;
    for (std::size_t i = 0; i < ref.size(); ++i)
        for (const lego::ScheduleResult &s : ref[i].schedules) {
            cycles += double(s.summary.totalCycles);
            energyByKey[trace.key[i]] += s.summary.totalEnergyPj;
        }
    double energyPj = 0;
    for (double e : energyByKey)
        energyPj += e;
    const lego::ChipCost chip = lego::archCost(opt.hw);

    const double passMedian = median(closedS);
    m["setup_s"] = setup;
    m["pass_s"] = passMedian;
    m["ops_per_s"] = double(trace.lines.size()) / passMedian;
    ops.report(m);
    m["area_um2"] = chip.totalAreaMm2() * 1e6;
    m["power_mw"] = chip.totalPowerMw();
    m["sim_mcycles"] = cycles / 1e6;
    m["sim_energy_uj"] = energyPj / 1e6;
}

} // namespace perfbench
