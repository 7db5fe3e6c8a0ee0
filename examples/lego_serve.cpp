/**
 * @file
 * `lego_serve`: the serving-loop driver. Replays a request trace
 * (default: the checked-in examples/serve_trace.jsonl — MobileNetV2 +
 * EfficientNetV2 + BERT under varying objectives, budgets, and K)
 * TWICE against one cache file:
 *
 *   pass 1 (cold)  fresh ServeLoop, empty cache file, flush on
 *                  shutdown;
 *   pass 2 (warm)  a NEW ServeLoop — a process restart in miniature —
 *                  warm-started from the flushed cache.
 *
 * Exit code 0 requires the serving invariants to hold:
 *   - every request of both passes succeeded,
 *   - the two passes' schedules are bit-identical (warm answers are
 *     exactly the cold answers),
 *   - the warm pass made zero performance-model evaluations, ran
 *     zero frontier sweeps, and hit >= 90% of its frontier-memo
 *     lookups.
 *
 * CI runs this as the serve-smoke step of all three jobs.
 *
 * Flags:
 *   --trace FILE    request trace (missing default falls back to the
 *                   built-in demo trace; an explicit missing FILE is
 *                   an error)
 *   --cache FILE    cache file shared by the passes
 *                   (default lego_serve.cache, removed on success)
 *   --threads N     worker-pool size (default 1)
 *   --keep-cache    keep the cache file for later warm starts
 *   --print-trace   print the built-in demo trace (the generator of
 *                   examples/serve_trace.jsonl) and exit
 *   --calibrate     print each trace model's composition extremes
 *                   (best-latency vs min-energy totals at K = 8) —
 *                   the numbers trace budgets are chosen between
 *   --chaos         fault-injection replay: one scenario per builtin
 *                   failpoint (cache save/load seams, request parse,
 *                   worker dispatch) plus overload-shedding and
 *                   deadline-degradation scenarios. Exits nonzero
 *                   unless EVERY injected fault degrades gracefully
 *                   (structured error or degraded response; the loop
 *                   never crashes, the cache file survives failed
 *                   saves). CI runs this as the chaos-smoke step.
 *
 * SIGINT/SIGTERM initiate a graceful shutdown: the handler only sets
 * a flag; the main thread stops submitting at the next trace line,
 * drains what was admitted, flushes the cache and stats, and exits
 * with 128 + signo.
 *
 * Multi-process shared-cache mode:
 *   --shared-cache FILE  single-pass READER replay: attach FILE as
 *                        the mmap'd read-mostly cache tier (no
 *                        private cache file, L0/L1 start empty) and
 *                        replay the trace once. Exit 0 requires
 *                        every request ok, zero model evaluations
 *                        and frontier sweeps, >= 90% frontier hit
 *                        rate, and >= 1 frontier hit actually
 *                        served from the mapped tier —
 *                        i.e. all warmth demonstrably came from the
 *                        published snapshot. A writer publishes that
 *                        snapshot with the normal two-pass mode plus
 *                        --keep-cache; CI runs one writer then N
 *                        concurrent readers and cmps their
 *                        --responses-out dumps bit-for-bit.
 *
 * Observability (all optional, all off the result path — the replay
 * gates above hold bit-exactly with these on or off):
 *   --trace-out FILE   enable tracing and write a Chrome trace_event
 *                      JSON covering both passes (open in Perfetto
 *                      or chrome://tracing)
 *   --stats-out FILE   metrics snapshot (build info, serve latency
 *                      histograms, engine/cache counters) written at
 *                      each pass's shutdown
 *   --access-log FILE  one JSON line per answered request, both
 *                      passes appended, rejected requests included
 *   --responses-out FILE  canonical response dump (one line per
 *                      response; doubles as raw bit patterns), the
 *                      byte-comparable form behind the
 *                      multi-process bit-identity gate. Two-pass
 *                      mode dumps the warm pass; --shared-cache
 *                      mode dumps its single pass.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>

#include "lego.hh"
#include "obs/build_info.hh"
#include "obs/failpoint.hh"
#include "obs/trace.hh"

using namespace lego;

namespace
{

/** Set by the SIGINT/SIGTERM handler; everything else happens on the
 *  main thread (the handler must not touch the ServeLoop — flag-based
 *  shutdown is what makes the handler-vs-destructor race impossible:
 *  shutdown() only ever runs from main). */
volatile std::sig_atomic_t g_signal = 0;

extern "C" void
onSignal(int sig)
{
    g_signal = sig;
}

struct PassNumbers
{
    std::vector<serve::ServeResponse> responses;
    std::uint64_t modelEvals = 0;
    std::uint64_t searches = 0; //!< Frontier sweeps the pass ran.
    std::uint64_t frontHits = 0;
    std::uint64_t frontMisses = 0;
    std::uint64_t sharedFrontHits = 0;
    double wallSeconds = 0;

    double frontierHitRate() const
    {
        const std::uint64_t total = frontHits + frontMisses;
        return total ? double(frontHits) / double(total) : 0.0;
    }
};

/** A double's exact bit pattern, so the canonical dump compares
 *  bit-for-bit instead of through decimal round-trips. */
std::uint64_t
bitsOf(double d)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

/**
 * Canonical response dump: one line per response carrying the full
 * comparable payload (the sameResponse fields — outcome, identity,
 * flags, every per-layer mapping and result, every summary) with
 * doubles as raw bit patterns. Two readers of the same snapshot must
 * produce byte-identical dumps; `cmp` is the multi-process gate.
 */
bool
dumpResponses(const std::string &path,
              const std::vector<serve::ServeResponse> &responses)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    for (const serve::ServeResponse &r : responses) {
        out << r.seq << ' ' << r.id << " ok=" << r.ok
            << " degraded=" << r.degraded << " shed=" << r.shed
            << " err=\"" << r.error << "\" models=";
        for (const std::string &m : r.models)
            out << m << ',';
        for (const ScheduleResult &s : r.schedules) {
            out << " | " << std::hex;
            for (const MappedLayer &ml : s.perLayer)
                out << int(ml.mapping.dataflow) << '.'
                    << ml.mapping.tm << '.' << ml.mapping.tn << '.'
                    << ml.mapping.tk << '.' << ml.result.cycles
                    << '.' << bitsOf(ml.result.energyPj) << '.'
                    << ml.result.dramBytes << ' ';
            out << "sum=" << s.summary.totalCycles << '.'
                << s.summary.tensorCycles << '.'
                << s.summary.ppuCycles << '.'
                << bitsOf(s.summary.totalEnergyPj) << '.'
                << s.summary.totalMacs << '.' << s.summary.dramBytes
                << " segs=" << s.segments.size() << std::dec;
        }
        out << '\n';
    }
    return static_cast<bool>(out);
}

HardwareConfig
servingConfig()
{
    HardwareConfig hw; // The paper's 16x16 MN/IC-OC deployment.
    hw.name = "LEGO-SERVE";
    return hw;
}

/** One raw trace line with its 1-based source line number, so parse
 *  errors and the access log can cite the exact line. */
struct TraceLine
{
    std::string text;
    std::size_t lineNo = 0;
};

/** Read request lines (blank / #-comment lines skipped) keeping
 *  their file line numbers. False when the file can't be opened. */
bool
loadTraceLines(const std::string &path, std::vector<TraceLine> *out,
               std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        *err = "cannot open trace file " + path;
        return false;
    }
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const std::size_t at = line.find_first_not_of(" \t\r");
        if (at == std::string::npos || line[at] == '#')
            continue;
        out->push_back({line, lineNo});
    }
    return true;
}

struct ObsPaths
{
    std::string accessLog;
    std::string stats;
};

PassNumbers
runPass(const char *label, const std::vector<TraceLine> &lines,
        const std::string &cachePath, int threads,
        const ObsPaths &obsPaths,
        const std::string &sharedCachePath = "")
{
    serve::ServeOptions sopt;
    sopt.hw = servingConfig();
    sopt.dse.threads = threads;
    // Reader mode: no private cache file at all — every warm answer
    // must come through the mmap'd shared tier.
    if (sharedCachePath.empty())
        sopt.dse.cachePath = cachePath;
    sopt.sharedCachePath = sharedCachePath;
    sopt.accessLogPath = obsPaths.accessLog;
    sopt.statsPath = obsPaths.stats;
    serve::ServeLoop loop(sopt);
    for (const TraceLine &line : lines) {
        if (g_signal)
            break; // Graceful: admitted requests still drain below.
        loop.submitLine(line.text, line.lineNo);
    }
    loop.drain();

    PassNumbers pass;
    pass.responses = loop.responses();
    pass.searches = loop.engine().evaluator().counters().searches;
    for (const serve::ServeResponse &r : pass.responses) {
        const dse::DseStats &s = r.stats.dse;
        pass.modelEvals += s.modelEvals;
        pass.frontHits += s.frontHits;
        pass.frontMisses += s.frontMisses;
        pass.sharedFrontHits += s.sharedFrontHits;
        pass.wallSeconds += s.wallSeconds;
        double cycles = 0, energy = 0;
        for (const ScheduleResult &sched : r.schedules) {
            cycles += double(sched.summary.totalCycles);
            energy += sched.summary.totalEnergyPj;
        }
        std::printf("  [%llu] %-14s %s models=%zu k=%zu "
                    "cycles=%.3e energy=%.3epJ evals=%llu "
                    "front=%llu/%llu dedup=%llu/%llu wall=%.3fs%s%s\n",
                    (unsigned long long)r.seq, r.id.c_str(),
                    r.ok ? "ok " : "ERR", r.models.size(),
                    r.compose.frontierK, cycles, energy,
                    (unsigned long long)s.modelEvals,
                    (unsigned long long)s.frontHits,
                    (unsigned long long)(s.frontHits + s.frontMisses),
                    (unsigned long long)s.layersDeduped,
                    (unsigned long long)s.crossModelDeduped,
                    s.wallSeconds, r.ok ? "" : " — ",
                    r.ok ? "" : r.error.c_str());
    }
    if (!loop.shutdown())
        std::printf("  warning: cache flush to %s failed\n",
                    cachePath.c_str());
    std::printf("pass %-5s %zu requests, evals=%llu, sweeps=%llu, "
                "frontier hits %llu/%llu (%.1f%%), wall=%.3fs\n",
                label, pass.responses.size(),
                (unsigned long long)pass.modelEvals,
                (unsigned long long)pass.searches,
                (unsigned long long)pass.frontHits,
                (unsigned long long)(pass.frontHits +
                                     pass.frontMisses),
                100.0 * pass.frontierHitRate(), pass.wallSeconds);
    return pass;
}

/** Composition extremes per distinct trace model: the budget range. */
void
calibrate(const std::vector<serve::ServeRequest> &trace)
{
    std::set<std::string> names;
    for (const serve::ServeRequest &req : trace)
        for (const std::string &name : req.models)
            names.insert(name);
    const HardwareConfig hw = servingConfig();
    dse::DseEngine engine;
    for (const std::string &name : names) {
        Model m;
        if (!serve::lookupModel(name, &m)) {
            std::printf("%-16s unknown model\n", name.c_str());
            continue;
        }
        ComposeOptions copt;
        copt.frontierK = 8;
        ScheduleResult fast = engine.mapModelComposed(hw, m);
        copt.latencyBudgetCycles = 1e30; // Min-energy extreme.
        ScheduleResult lean = composeSchedule(
            m,
            engine.evaluator().mapModelFrontier(hw, m, 8,
                                                &engine.pool()),
            copt);
        std::printf("%-16s best-latency %.6e cyc / %.6e pJ — "
                    "min-energy %.6e cyc / %.6e pJ\n",
                    name.c_str(),
                    double(fast.summary.totalCycles),
                    fast.summary.totalEnergyPj,
                    double(lean.summary.totalCycles),
                    lean.summary.totalEnergyPj);
    }
}

/** One chaos scenario's observable outcome. */
struct ChaosPass
{
    std::vector<serve::ServeResponse> responses;
    bool flushOk = true;
    std::uint64_t modelEvals = 0;  //!< 0 = the pass ran fully warm.
    std::uint64_t quarantined = 0; //!< Cache files quarantined.
};

ChaosPass
runChaosPass(const std::vector<TraceLine> &lines,
             const std::string &cachePath, int threads,
             const std::string &statsPath,
             std::size_t maxQueueDepth = 0)
{
    serve::ServeOptions sopt;
    sopt.hw = servingConfig();
    sopt.dse.threads = threads;
    sopt.dse.cachePath = cachePath;
    sopt.statsPath = statsPath;
    sopt.maxQueueDepth = maxQueueDepth;
    serve::ServeLoop loop(sopt);
    for (const TraceLine &line : lines) {
        if (g_signal)
            break;
        loop.submitLine(line.text, line.lineNo);
    }
    loop.drain();
    ChaosPass pass;
    pass.responses = loop.responses();
    for (const serve::ServeResponse &r : pass.responses)
        pass.modelEvals += r.stats.dse.modelEvals;
    pass.quarantined = loop.engine().cache().counters().quarantined;
    pass.flushOk = loop.shutdown();
    return pass;
}

/**
 * Fault-injection replay: every builtin failpoint is armed in turn
 * against the same trace and the loop must degrade exactly as
 * documented (src/serve/README.md, "Failure modes & degradation") —
 * never crash, never lose the cache file to a failed save, never
 * answer a non-shed, non-faulted request with anything but ok.
 * Returns the process exit code.
 */
int
runChaos(const std::vector<TraceLine> &lines,
         const std::string &cachePath, int threads, bool keepCache,
         const std::string &statsPath)
{
    obs::Failpoints &fp = obs::Failpoints::instance();
    bool allOk = true;
    auto report = [&](const std::string &name, bool ok,
                      const std::string &detail) {
        std::printf("chaos %-20s %s%s%s\n", name.c_str(),
                    ok ? "ok" : "FAIL",
                    detail.empty() ? "" : " — ", detail.c_str());
        if (!ok)
            allOk = false;
    };
    auto okCount = [](const ChaosPass &p) {
        std::size_t n = 0;
        for (const serve::ServeResponse &r : p.responses)
            if (r.ok)
                ++n;
        return n;
    };
    auto allRespOk = [&](const ChaosPass &p) {
        return okCount(p) == p.responses.size() &&
               p.responses.size() == lines.size();
    };

    // Baseline: a clean cold pass populates the cache every later
    // warm scenario leans on (modelEvals == 0 is the warmness — and
    // therefore cache-survival — probe).
    std::remove(cachePath.c_str());
    {
        ChaosPass p =
            runChaosPass(lines, cachePath, threads, statsPath);
        report("baseline", allRespOk(p) && p.flushOk,
               "cold pass must succeed end to end");
        if (!allOk)
            return 1; // Nothing below is meaningful without it.
    }

    // Forced-corrupt load: the file is quarantined aside, the loop
    // cold-starts, answers everything, and re-saves a clean cache.
    {
        fp.arm("cache.load.corrupt", 1);
        ChaosPass p =
            runChaosPass(lines, cachePath, threads, statsPath);
        fp.disarmAll();
        const std::string aside = cachePath + ".corrupt";
        const bool asideExists =
            static_cast<bool>(std::ifstream(aside));
        report("cache.load.corrupt",
               allRespOk(p) && p.quarantined == 1 &&
                   p.modelEvals > 0 && p.flushOk && asideExists,
               "want quarantine + cold start + clean re-save");
        std::remove(aside.c_str());
    }

    // Every save-path seam: the flush fails loudly, the responses
    // are untouched, and — because the failed save must leave the
    // previous file intact — the NEXT scenario still runs warm.
    const char *saveSeams[] = {"cache.save.open", "cache.save.write",
                               "cache.save.fsync",
                               "cache.save.rename",
                               "cache.save.crash"};
    for (const char *seam : saveSeams) {
        if (g_signal)
            return 128 + g_signal;
        fp.arm(seam, 1);
        ChaosPass p =
            runChaosPass(lines, cachePath, threads, statsPath);
        fp.disarmAll();
        report(seam,
               allRespOk(p) && !p.flushOk && p.modelEvals == 0,
               "want warm pass + failed flush");
    }
    {
        // Recovery probe: after five failed saves the on-disk cache
        // is still the last good one (crash-safety), and saving
        // works again with nothing armed.
        ChaosPass p =
            runChaosPass(lines, cachePath, threads, statsPath);
        report("recovery", allRespOk(p) && p.flushOk &&
                               p.modelEvals == 0,
               "want warm pass + clean flush");
    }

    // Parse seam: the faulted line keeps its queue position as a
    // structured error; everything after it is answered normally.
    {
        fp.arm("serve.parse", 1);
        ChaosPass p =
            runChaosPass(lines, cachePath, threads, statsPath);
        fp.disarmAll();
        bool shaped = p.responses.size() == lines.size() &&
                      okCount(p) == p.responses.size() - 1 &&
                      !p.responses.empty() && !p.responses[0].ok &&
                      p.responses[0].error.find(
                          "injected parse fault") !=
                          std::string::npos;
        report("serve.parse", shaped,
               "want exactly one structured parse-fault response");
    }

    // Dispatch seam: the injected exception is contained to one
    // request as an internal-error response; the dispatcher (and
    // every request behind it) survives.
    {
        fp.arm("pool.dispatch", 1);
        ChaosPass p =
            runChaosPass(lines, cachePath, threads, statsPath);
        fp.disarmAll();
        bool shaped = p.responses.size() == lines.size() &&
                      okCount(p) == p.responses.size() - 1 &&
                      !p.responses.empty() && !p.responses[0].ok &&
                      p.responses[0].error.find("pool.dispatch") !=
                          std::string::npos &&
                      p.responses[0].error.rfind("internal error:",
                                                 0) == 0;
        report("pool.dispatch", shaped,
               "want one contained internal-error response");
    }

    // Overload: a depth-1 admission queue against a burst submit
    // must shed (with a positive retry hint) and still answer every
    // non-shed request correctly, in order.
    {
        ChaosPass p = runChaosPass(lines, cachePath, threads,
                                   statsPath, /*maxQueueDepth=*/1);
        std::size_t shed = 0;
        bool shapes = p.responses.size() == lines.size();
        for (const serve::ServeResponse &r : p.responses) {
            if (r.shed) {
                ++shed;
                shapes = shapes && !r.ok && r.retryAfterMs > 0;
            } else {
                shapes = shapes && r.ok;
            }
        }
        report("overload",
               shapes && shed > 0 && shed < p.responses.size(),
               "want >= 1 shed with retry hints, rest served (shed " +
                   std::to_string(shed) + "/" +
                   std::to_string(p.responses.size()) + ")");
    }

    // Expired deadline on a cold cache: the sweep trips immediately
    // and the response is a best-so-far schedule flagged degraded —
    // ok, never empty, never an error.
    {
        const std::string coldCache = cachePath + ".deadline";
        std::remove(coldCache.c_str());
        const std::vector<TraceLine> tiny = {
            {"{\"id\": \"chaos-deadline-tiny\", \"models\": "
             "[\"bert\"], \"k\": 8, \"deadline_ms\": 0.001}",
             1}};
        ChaosPass p =
            runChaosPass(tiny, coldCache, threads, statsPath);
        std::remove(coldCache.c_str());
        bool shaped = p.responses.size() == 1 &&
                      p.responses[0].ok &&
                      p.responses[0].degraded &&
                      !p.responses[0].schedules.empty();
        report("deadline.expired", shaped,
               "want ok + degraded best-so-far schedule");
    }

    // Generous deadline on the warm cache: must NOT degrade — the
    // deadline knob is free until it actually expires.
    {
        const std::vector<TraceLine> huge = {
            {"{\"id\": \"chaos-deadline-huge\", \"models\": "
             "[\"mobilenetv2\"], \"k\": 8, \"deadline_ms\": 1e9}",
             1}};
        ChaosPass p =
            runChaosPass(huge, cachePath, threads, statsPath);
        bool shaped = p.responses.size() == 1 &&
                      p.responses[0].ok &&
                      !p.responses[0].degraded &&
                      p.modelEvals == 0;
        report("deadline.generous", shaped,
               "want warm non-degraded response");
    }

    if (!keepCache)
        std::remove(cachePath.c_str());
    if (g_signal)
        return 128 + g_signal;
    std::printf("%s\n",
                allOk ? "chaos replay OK" : "chaos replay FAILED");
    return allOk ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string tracePath = "examples/serve_trace.jsonl";
    bool traceExplicit = false;
    std::string cachePath = "lego_serve.cache";
    int threads = 1;
    bool keepCache = false, printTrace = false, doCalibrate = false;
    bool doChaos = false;
    std::string traceOut;
    std::string sharedCachePath;
    std::string responsesOut;
    ObsPaths obsPaths;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
            tracePath = argv[++i];
            traceExplicit = true;
        } else if (!std::strcmp(argv[i], "--cache") && i + 1 < argc) {
            cachePath = argv[++i];
        } else if (!std::strcmp(argv[i], "--threads") &&
                   i + 1 < argc) {
            threads = std::atoi(argv[++i]);
        } else if (!std::strcmp(argv[i], "--keep-cache")) {
            keepCache = true;
        } else if (!std::strcmp(argv[i], "--print-trace")) {
            printTrace = true;
        } else if (!std::strcmp(argv[i], "--calibrate")) {
            doCalibrate = true;
        } else if (!std::strcmp(argv[i], "--chaos")) {
            doChaos = true;
        } else if (!std::strcmp(argv[i], "--shared-cache") &&
                   i + 1 < argc) {
            sharedCachePath = argv[++i];
        } else if (!std::strcmp(argv[i], "--responses-out") &&
                   i + 1 < argc) {
            responsesOut = argv[++i];
        } else if (!std::strcmp(argv[i], "--trace-out") &&
                   i + 1 < argc) {
            traceOut = argv[++i];
        } else if (!std::strcmp(argv[i], "--stats-out") &&
                   i + 1 < argc) {
            obsPaths.stats = argv[++i];
        } else if (!std::strcmp(argv[i], "--access-log") &&
                   i + 1 < argc) {
            obsPaths.accessLog = argv[++i];
        } else {
            std::printf("unknown flag %s\n", argv[i]);
            return 2;
        }
    }
    std::printf("%s\n", obs::buildInfo().oneLine().c_str());
    if (!traceOut.empty())
        obs::Tracer::setEnabled(true);
    // Flag-based graceful shutdown: the handler sets g_signal, the
    // main thread notices between trace lines / passes and exits
    // through the normal drain + flush path with 128 + signo.
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    if (printTrace) {
        for (const serve::ServeRequest &req : serve::demoTrace())
            std::printf("%s\n", serve::formatRequest(req).c_str());
        return 0;
    }

    // Requests are submitted line by line (with line numbers, so
    // rejections cite their source); the parsed form is only needed
    // for --calibrate. A missing default trace falls back to the
    // built-in demo trace rendered through formatRequest.
    std::vector<TraceLine> lines;
    std::vector<serve::ServeRequest> trace;
    std::string err;
    if (loadTraceLines(tracePath, &lines, &err)) {
        std::printf("replaying %s (%zu requests)\n",
                    tracePath.c_str(), lines.size());
        if (doCalibrate &&
            !serve::parseTraceFile(tracePath, &trace, &err)) {
            std::printf("error: %s\n", err.c_str());
            return 2;
        }
    } else if (traceExplicit) {
        std::printf("error: %s\n", err.c_str());
        return 2;
    } else {
        trace = serve::demoTrace();
        for (std::size_t i = 0; i < trace.size(); ++i)
            lines.push_back(
                {serve::formatRequest(trace[i]), i + 1});
        std::printf("default trace missing (%s); replaying the "
                    "built-in demo trace (%zu requests)\n",
                    err.c_str(), trace.size());
    }

    if (doCalibrate) {
        calibrate(trace);
        return 0;
    }
    if (doChaos)
        return runChaos(lines, cachePath, threads, keepCache,
                        obsPaths.stats);

    if (!sharedCachePath.empty()) {
        // Reader replay: one pass, warmth only through the mapped
        // snapshot. The gates mirror the two-pass warm gates, plus
        // the attribution proof that the mmap tier actually served.
        std::printf("— reader pass (shared cache %s) —\n",
                    sharedCachePath.c_str());
        PassNumbers pass = runPass("read", lines, "", threads,
                                   obsPaths, sharedCachePath);
        if (g_signal)
            return 128 + g_signal;
        bool ok = true;
        for (const serve::ServeResponse &r : pass.responses)
            if (!r.ok) {
                std::printf("FAIL: request %llu (%s): %s\n",
                            (unsigned long long)r.seq, r.id.c_str(),
                            r.error.c_str());
                ok = false;
            }
        if (pass.modelEvals != 0) {
            std::printf("FAIL: reader ran %llu model evaluations "
                        "(want 0 — every answer from the shared "
                        "snapshot)\n",
                        (unsigned long long)pass.modelEvals);
            ok = false;
        }
        if (pass.searches != 0) {
            std::printf("FAIL: reader ran %llu frontier sweeps "
                        "(want 0)\n",
                        (unsigned long long)pass.searches);
            ok = false;
        }
        if (pass.frontierHitRate() < 0.90) {
            std::printf("FAIL: reader frontier hit rate %.1f%% < "
                        "90%%\n",
                        100.0 * pass.frontierHitRate());
            ok = false;
        }
        if (pass.sharedFrontHits == 0) {
            std::printf("FAIL: no frontier hit was served from the "
                        "mapped tier\n");
            ok = false;
        }
        if (!responsesOut.empty() &&
            !dumpResponses(responsesOut, pass.responses)) {
            std::printf("FAIL: cannot write responses to %s\n",
                        responsesOut.c_str());
            ok = false;
        }
        std::printf("%s\n", ok ? "shared-cache reader OK"
                               : "shared-cache reader FAILED");
        return ok ? 0 : 1;
    }

    // Pass 1 must be genuinely cold: a stale cache file would turn
    // the cold pass into a warm one and hide regressions.
    std::remove(cachePath.c_str());
    std::printf("— cold pass —\n");
    PassNumbers cold =
        runPass("cold", lines, cachePath, threads, obsPaths);
    if (g_signal) {
        std::printf("interrupted by signal %d; cache flushed, "
                    "exiting\n",
                    int(g_signal));
        return 128 + g_signal;
    }
    std::printf("— warm pass (restart, cache %s) —\n",
                cachePath.c_str());
    PassNumbers warm =
        runPass("warm", lines, cachePath, threads, obsPaths);
    if (!keepCache)
        std::remove(cachePath.c_str());
    if (g_signal) {
        std::printf("interrupted by signal %d; cache flushed, "
                    "exiting\n",
                    int(g_signal));
        return 128 + g_signal;
    }

    if (!traceOut.empty()) {
        if (obs::Tracer::instance().writeJson(
                traceOut,
                "{\"build\": " + obs::buildInfo().toJson() + "}"))
            std::printf("trace written to %s (%llu events, %llu "
                        "dropped)\n",
                        traceOut.c_str(),
                        (unsigned long long)
                            obs::Tracer::instance().recorded(),
                        (unsigned long long)
                            obs::Tracer::instance().dropped());
        else
            std::printf("warning: cannot write trace to %s\n",
                        traceOut.c_str());
    }

    bool ok = true;
    for (const PassNumbers *pass : {&cold, &warm})
        for (const serve::ServeResponse &r : pass->responses)
            if (!r.ok) {
                std::printf("FAIL: request %llu (%s): %s\n",
                            (unsigned long long)r.seq, r.id.c_str(),
                            r.error.c_str());
                ok = false;
            }
    if (cold.responses.size() != warm.responses.size()) {
        std::printf("FAIL: response count mismatch\n");
        ok = false;
    } else {
        for (std::size_t i = 0; i < cold.responses.size(); ++i)
            if (!serve::sameResponse(cold.responses[i],
                                     warm.responses[i])) {
                std::printf("FAIL: warm response %zu diverged from "
                            "cold\n",
                            i);
                ok = false;
            }
    }
    if (warm.modelEvals != 0) {
        std::printf("FAIL: warm pass ran %llu model evaluations "
                    "(want 0)\n",
                    (unsigned long long)warm.modelEvals);
        ok = false;
    }
    if (warm.searches != 0) {
        std::printf("FAIL: warm pass ran %llu frontier sweeps "
                    "(want 0)\n",
                    (unsigned long long)warm.searches);
        ok = false;
    }
    if (warm.frontHits + warm.frontMisses == 0) {
        std::printf("FAIL: warm pass made no frontier lookups — "
                    "trace has no tensor layers?\n");
        ok = false;
    } else if (warm.frontierHitRate() < 0.90) {
        std::printf("FAIL: warm frontier hit rate %.1f%% < 90%%\n",
                    100.0 * warm.frontierHitRate());
        ok = false;
    }
    if (!responsesOut.empty() &&
        !dumpResponses(responsesOut, warm.responses)) {
        std::printf("FAIL: cannot write responses to %s\n",
                    responsesOut.c_str());
        ok = false;
    }
    std::printf("%s\n", ok ? "serve replay OK" : "serve replay FAILED");
    return ok ? 0 : 1;
}
