#include "serve/serve_loop.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <limits>
#include <utility>

#include "dse/cancel.hh"
#include "dse/stats_scope.hh"
#include "obs/build_info.hh"
#include "obs/failpoint.hh"
#include "obs/trace.hh"

namespace lego
{
namespace serve
{

namespace
{

/** JSON string escaping for the access log: '"', '\\', and control
 *  bytes (parse-error text can quote arbitrary input). */
std::string
jsonEscaped(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        const unsigned char u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (u < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", u);
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

} // namespace

bool
sameResponse(const ServeResponse &a, const ServeResponse &b)
{
    // degraded/shed are part of the comparable outcome (a degraded
    // answer is NOT the same response as the full search's);
    // retryAfterMs, latencyMs, and coalesced/leaderSeq are load
    // artifacts and deliberately excluded — a coalesced follower's
    // payload is bit-identical to recomputation by the determinism
    // contract, so two passes may disagree on WHO coalesced while
    // agreeing on every answer.
    if (a.ok != b.ok || a.seq != b.seq || a.id != b.id ||
        a.error != b.error || a.models != b.models ||
        a.degraded != b.degraded || a.shed != b.shed ||
        a.schedules.size() != b.schedules.size())
        return false;
    for (std::size_t i = 0; i < a.schedules.size(); ++i)
        if (!sameSchedule(a.schedules[i], b.schedules[i]))
            return false;
    return true;
}

ServeLoop::ServeLoop(ServeOptions opt)
    : opt_(std::move(opt)), engine_(opt_.dse)
{
    // Reader side of the multi-process shared cache: map the
    // published snapshot (when one exists — an unpublished path just
    // means the per-request refresh below will pick it up later).
    if (!opt_.sharedCachePath.empty())
        engine_.cache().attachShared(opt_.sharedCachePath);
    // Pre-register every serve metric so snapshots carry the full
    // schema even before the first request (or first error).
    metrics_.counter("serve.requests");
    metrics_.counter("serve.errors");
    metrics_.counter("serve.shed");
    metrics_.counter("serve.degraded");
    metrics_.counter("serve.stalled");
    metrics_.counter("serve.internal_errors");
    metrics_.counter("serve.coalesced");
    metrics_.gauge("serve.queue_depth");
    metrics_.gauge("serve.in_flight");
    metrics_.histogram("serve.queue_us");
    metrics_.histogram("serve.request_us");
    metrics_.histogram("serve.sweep_us");
    metrics_.histogram("serve.compose_us");
    if (!opt_.accessLogPath.empty())
        accessLog_.open(opt_.accessLogPath, std::ios::app);
    const std::size_t lanes =
        std::max<std::size_t>(1, opt_.maxInFlight);
    servers_.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i)
        servers_.emplace_back([this] { serverLoop(); });
    if (opt_.stallTimeoutMs > 0)
        watchdog_ = std::thread([this] { watchdogLoop(); });
}

ServeLoop::~ServeLoop()
{
    shutdown();
}

double
ServeLoop::retryAfterHint(std::size_t depth)
{
    // Estimated drain time of the queue ahead of the caller (plus
    // the slot it would take): mean observed request latency times
    // the depth, divided by the in-flight lanes actually draining it
    // — serial service would overestimate the wait maxInFlight-fold.
    // Before any request has finished there is no estimate; 50 ms is
    // a deliberate round number, not a measurement.
    const obs::Histogram::Snapshot s =
        metrics_.histogram("serve.request_us").snapshot();
    const double perReqMs = s.count ? s.mean() / 1000.0 : 50.0;
    const double lanes =
        double(std::max<std::size_t>(1, opt_.maxInFlight));
    return std::max(1.0, perReqMs * double(depth + 1) / lanes);
}

std::uint64_t
ServeLoop::admit(Pending p)
{
    p.admitNs = obs::Tracer::nowNs();
    LEGO_TRACE_INSTANT("serve.admit", "serve");
    std::uint64_t seq;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!accepting_)
            return kRejected;
        // Coalescing, checked BEFORE the shed bound: a duplicate of
        // a queued or in-flight request joins that leader's
        // computation, consumes no queue slot (so it cannot shed and
        // cannot crowd distinct requests out), and is answered with
        // the leader's bit-identical payload when it completes.
        if (opt_.coalesce && p.parseOk && !p.shed) {
            auto it = leaders_.find(coalesceKey(p.req));
            if (it != leaders_.end()) {
                seq = p.seq = nextSeq_++;
                metrics_.counter("serve.coalesced").add(1);
                it->second->followers.push_back(std::move(p));
                return seq;
            }
        }
        // Overload shedding: past maxQueueDepth the entry still
        // takes a sequence slot and travels the queue — answered in
        // place with a structured rejection — so a replayed trace
        // keeps its exact admission ordering even through overload.
        if (opt_.maxQueueDepth && !p.shed &&
            queue_.size() >= opt_.maxQueueDepth) {
            p.shed = true;
            p.retryAfterMs = retryAfterHint(queue_.size());
            metrics_.counter("serve.shed").add(1);
        }
        seq = p.seq = nextSeq_++;
        auto sp = std::make_shared<Pending>(std::move(p));
        if (opt_.coalesce && sp->parseOk && !sp->shed) {
            sp->key = coalesceKey(sp->req);
            leaders_[sp->key] = sp;
        }
        queue_.push_back(std::move(sp));
        metrics_.gauge("serve.queue_depth")
            .set(double(queue_.size()));
    }
    workCv_.notify_one();
    return seq;
}

std::uint64_t
ServeLoop::submit(ServeRequest req)
{
    Pending p;
    p.req = std::move(req);
    return admit(std::move(p));
}

std::uint64_t
ServeLoop::submitLine(const std::string &line, std::size_t lineNo)
{
    Pending p;
    p.lineNo = lineNo;
    std::string err;
    if (!parseRequest(line, &p.req, &err)) {
        // Malformed lines keep their queue position as error
        // responses, so replaying a trace with a bad line is still
        // deterministic end to end. The message carries the source
        // line (when known) and the offending field (from
        // parseRequest), so the access log pinpoints rejections.
        p.parseOk = false;
        p.error = "parse error";
        if (lineNo)
            p.error += " at line " + std::to_string(lineNo);
        p.error += ": " + err;
    }
    return admit(std::move(p));
}

void
ServeLoop::pause()
{
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = true;
}

void
ServeLoop::resume()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        paused_ = false;
    }
    workCv_.notify_all();
}

void
ServeLoop::serverLoop()
{
    for (;;) {
        std::shared_ptr<Pending> p;
        std::uint64_t startNs;
        {
            std::unique_lock<std::mutex> lk(mu_);
            workCv_.wait(lk, [this] {
                return stop_ || (!paused_ && !queue_.empty());
            });
            if (queue_.empty())
                return; // stop_ set and nothing left to serve.
            p = std::move(queue_.front());
            queue_.pop_front();
            metrics_.gauge("serve.queue_depth")
                .set(double(queue_.size()));
            // Stamp the in-flight request for the watchdog.
            startNs = obs::Tracer::nowNs();
            inFlight_[p->seq] = InFlight{startNs, false};
            metrics_.gauge("serve.in_flight")
                .set(double(inFlight_.size()));
        }
        Staged s;
        s.queueUs = double(startNs - p->admitNs) / 1000.0;
        s.r = serveOne(*p, s.queueUs, &s.wallUs);
        finish(p, std::move(s));
    }
}

void
ServeLoop::watchdogLoop()
{
    // Poll often enough that a stall is flagged within ~5/4 of the
    // threshold, rarely enough to stay invisible in profiles.
    const auto poll = std::chrono::milliseconds(std::max(
        std::int64_t(50), std::int64_t(opt_.stallTimeoutMs / 4)));
    const std::uint64_t limitNs =
        std::uint64_t(opt_.stallTimeoutMs * 1e6);
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        if (watchdogCv_.wait_for(lk, poll,
                                 [this] { return stop_; }))
            return;
        const std::uint64_t nowNs = obs::Tracer::nowNs();
        for (auto &entry : inFlight_) {
            InFlight &f = entry.second;
            if (f.stalled || nowNs - f.startNs < limitNs)
                continue;
            // Observational only: the sweep keeps running (deadlines
            // are the cooperative bound); counted once per request.
            f.stalled = true;
            metrics_.counter("serve.stalled").add(1);
            std::fprintf(
                stderr,
                "lego-serve: watchdog: request seq %llu in "
                "flight for %.1f s (threshold %.1f s)\n",
                static_cast<unsigned long long>(entry.first),
                double(nowNs - f.startNs) / 1e9,
                opt_.stallTimeoutMs / 1e3);
        }
    }
}

ServeResponse
ServeLoop::serveOne(const Pending &p, double queueUs, double *wallUs)
{
    // Observability shell around buildResponse: queue-wait and
    // whole-request latency into the loop registry, lifecycle spans
    // into the tracer. None of it feeds back into the response — the
    // bit-identity contract. Emission (access log, response vector)
    // happens later, in sequence order, under mu_.
    const std::uint64_t startNs = obs::Tracer::nowNs();
    metrics_.histogram("serve.queue_us").record(queueUs);
    LEGO_TRACE_COMPLETE("serve.queued", "serve", p.admitNs,
                        startNs - p.admitNs, "seq", p.seq);
    ServeResponse r;
    {
        LEGO_TRACE_SPAN_ARG("serve.request", "serve", "seq", p.seq);
        // Containment boundary: an exception escaping one request's
        // build (an injected pool.dispatch fault, an OOM in a sweep)
        // becomes that request's error response — it must never
        // unwind the server thread and take every queued request
        // with it.
        try {
            r = buildResponse(p);
        } catch (const std::exception &e) {
            r = ServeResponse();
            r.seq = p.seq;
            r.traceLine = p.lineNo;
            r.id = p.req.id.empty() ? "#" + std::to_string(p.seq)
                                    : p.req.id;
            r.models = p.req.models;
            r.error = std::string("internal error: ") + e.what();
            metrics_.counter("serve.internal_errors").add(1);
        }
    }
    *wallUs = double(obs::Tracer::nowNs() - startNs) / 1000.0;
    metrics_.histogram("serve.request_us").record(*wallUs);
    return r;
}

ServeResponse
ServeLoop::buildResponse(const Pending &p)
{
    ServeResponse r;
    r.seq = p.seq;
    r.traceLine = p.lineNo;
    r.id = p.req.id.empty() ? "#" + std::to_string(p.seq) : p.req.id;
    r.models = p.req.models;
    if (p.shed) {
        // Shed at admission: answered in place so the response
        // stream stays dense in sequence numbers. The hint was
        // computed at shed time, when the depth was observed.
        r.shed = true;
        r.retryAfterMs = p.retryAfterMs;
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1f", p.retryAfterMs);
        r.error = "shed: admission queue full; retry in " +
                  std::string(buf) + " ms";
        return r;
    }
    if (!p.parseOk) {
        r.error = p.error;
        return r;
    }

    // Per-request stats context: every counter bumped while this
    // scope (or a pool item's re-installed copy of it) is current
    // credits THIS request — exact even with other requests in
    // flight, which deltas of the engine's global counters are not.
    dse::StatsContext statsCtx;
    dse::StatsContext::Scope statsScope(&statsCtx);
    const auto buildStart = std::chrono::steady_clock::now();

    // Pick up a republished shared snapshot before any lookups: one
    // cheap header read per request (no-op when nothing is
    // attached); a generation change atomically remaps while
    // concurrent requests finish their probes on the old mapping.
    engine_.cache().refreshShared();

    // Resolve the request's zoo from the registry. An unknown name
    // fails the whole request (never a partial zoo), but later
    // requests are unaffected.
    std::vector<Model> owned;
    owned.reserve(p.req.models.size());
    {
        LEGO_TRACE_SPAN_ARG("serve.resolve", "serve", "models",
                            p.req.models.size());
        for (const std::string &name : p.req.models) {
            Model m;
            if (!lookupModel(name, &m)) {
                r.error = "unknown model \"" + name + "\"";
                return r;
            }
            owned.push_back(std::move(m));
        }
    }
    std::vector<const Model *> zoo;
    zoo.reserve(owned.size());
    for (const Model &m : owned)
        zoo.push_back(&m);

    ComposeOptions copt;
    copt.frontierK =
        p.req.frontierK == 0 ? 1 : p.req.frontierK;
    // maxStages comes from the loop's configured compose options;
    // the request only flips the switch. Default off keeps the
    // layer-valued path untouched.
    copt.segment = opt_.dse.compose.segment;
    copt.segment.enable = p.req.segment;
    if (p.req.objective == Objective::Latency) {
        copt.energyBudgetPj = p.req.budget; // 0 = unbudgeted.
    } else {
        // Energy objective: budget 0 means an unbounded latency cap,
        // which composes straight to the min-energy extreme.
        copt.latencyBudgetCycles =
            p.req.budget > 0 ? p.req.budget
                             : std::numeric_limits<double>::max();
    }

    // Deadline: a stack token armed only when the request asked for
    // one. Deadline-free requests pass a null token everywhere —
    // sweeps compile to the exact historical path, bit for bit.
    // Coalesced followers never reach this point, so a follower's
    // deadline can never arm (or trip) the leader's token.
    dse::CancelToken deadline;
    const dse::CancelToken *cancel = nullptr;
    if (p.req.deadlineMs > 0) {
        deadline.setDeadlineIn(p.req.deadlineMs);
        cancel = &deadline;
    }

    std::vector<std::vector<dse::MappingFrontier>> fronts;
    {
        LEGO_TRACE_SPAN_ARG("serve.sweep", "serve", "k",
                            copt.frontierK);
        const std::uint64_t t0 = obs::Tracer::nowNs();
        fronts = engine_.evaluator().mapZooFrontier(
            opt_.hw, zoo, copt.frontierK, &engine_.pool(), cancel);
        metrics_.histogram("serve.sweep_us")
            .record(double(obs::Tracer::nowNs() - t0) / 1000.0);
    }
    {
        LEGO_TRACE_SPAN_ARG("serve.compose", "serve", "models",
                            zoo.size());
        const std::uint64_t t0 = obs::Tracer::nowNs();
        if (!copt.segment.enable) {
            r.schedules = composeZoo(zoo, std::move(fronts), copt);
        } else {
            // Segment-valued path: search a plan per model, then
            // compose from it. The all-singleton plan degenerates to
            // the composeZoo result bit for bit.
            r.schedules.reserve(zoo.size());
            for (std::size_t mi = 0; mi < zoo.size(); ++mi) {
                LEGO_TRACE_SPAN_ARG("serve.segment", "serve",
                                    "model", mi);
                const SegmentPlan plan = engine_.searchSegmentPlan(
                    opt_.hw, *zoo[mi], copt.segment, cancel);
                r.schedules.push_back(composeSchedule(
                    *zoo[mi], std::move(fronts[mi]), copt, plan));
            }
        }
        metrics_.histogram("serve.compose_us")
            .record(double(obs::Tracer::nowNs() - t0) / 1000.0);
    }
    r.stats.dse = engine_.statsFrom(
        statsCtx, std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - buildStart)
                      .count());
    r.compose = copt;
    r.ok = true;
    // Best-so-far is never nothing: every frontier keeps >= 1 point
    // even under a tripped token, so a degraded response still
    // carries one composed schedule per model.
    if (cancel && cancel->degraded()) {
        r.degraded = true;
        metrics_.counter("serve.degraded").add(1);
    }
    return r;
}

void
ServeLoop::finish(const std::shared_ptr<Pending> &p, Staged s)
{
    const std::uint64_t doneNs = obs::Tracer::nowNs();
    s.r.latencyMs = double(doneNs - p->admitNs) / 1e6;
    {
        std::lock_guard<std::mutex> lk(mu_);
        inFlight_.erase(p->seq);
        metrics_.gauge("serve.in_flight")
            .set(double(inFlight_.size()));
        // Retire the leadership BEFORE answering followers: a
        // duplicate admitted from here on starts a fresh computation
        // (which, by determinism, produces the same payload).
        if (!p->key.empty()) {
            auto it = leaders_.find(p->key);
            if (it != leaders_.end() && it->second == p)
                leaders_.erase(it);
        }
        std::vector<Pending> followers = std::move(p->followers);
        p->followers.clear();
        const std::uint64_t leaderSeq = s.r.seq;
        // Followers: the leader's payload under the follower's own
        // identity, zero work, zero stats. models comes from the
        // FOLLOWER's request — the key is case-folded, so the two
        // spellings may differ, and recomputation would have echoed
        // the follower's.
        for (Pending &fol : followers) {
            Staged fs;
            fs.r = s.r;
            fs.r.seq = fol.seq;
            fs.r.traceLine = fol.lineNo;
            fs.r.id = fol.req.id.empty()
                          ? "#" + std::to_string(fol.seq)
                          : fol.req.id;
            fs.r.models = fol.req.models;
            fs.r.coalesced = true;
            fs.r.leaderSeq = leaderSeq;
            fs.r.stats = RequestStats{};
            fs.r.latencyMs = double(doneNs - fol.admitNs) / 1e6;
            fs.queueUs = double(doneNs - fol.admitNs) / 1000.0;
            fs.wallUs = 0;
            staged_.emplace(fs.r.seq, std::move(fs));
        }
        staged_.emplace(s.r.seq, std::move(s));
        emitReadyLocked();
    }
    idleCv_.notify_all();
}

void
ServeLoop::emitReadyLocked()
{
    // Strict sequence-order emission: whichever server thread
    // completes the gating seq flushes every consecutively staged
    // response — responses_, the access log, and the stats cadence
    // all observe admission order no matter how builds overlapped.
    while (!staged_.empty() &&
           staged_.begin()->first == nextEmit_) {
        Staged s = std::move(staged_.begin()->second);
        staged_.erase(staged_.begin());
        ++nextEmit_;
        metrics_.counter("serve.requests").add(1);
        if (!s.r.ok)
            metrics_.counter("serve.errors").add(1);
        logAccess(s.r, s.queueUs, s.wallUs);
        responses_.push_back(std::move(s.r));
        ++served_;
        if (opt_.statsEvery && served_ % opt_.statsEvery == 0)
            writeStats();
    }
}

void
ServeLoop::logAccess(const ServeResponse &r, double queueUs,
                     double wallUs)
{
    if (!accessLog_.is_open())
        return;
    char num[64];
    std::string line = "{\"seq\": " + std::to_string(r.seq);
    line += ", \"id\": \"" + jsonEscaped(r.id) + "\"";
    if (r.traceLine)
        line += ", \"line\": " + std::to_string(r.traceLine);
    line += r.ok ? ", \"ok\": true" : ", \"ok\": false";
    line += ", \"models\": " + std::to_string(r.models.size());
    line += ", \"schedules\": " + std::to_string(r.schedules.size());
    std::snprintf(num, sizeof(num), "%.3f", queueUs);
    line += std::string(", \"queue_us\": ") + num;
    std::snprintf(num, sizeof(num), "%.3f", wallUs / 1000.0);
    line += std::string(", \"wall_ms\": ") + num;
    std::snprintf(num, sizeof(num), "%.4f",
                  r.stats.frontierHitRate());
    line += std::string(", \"front_hit_rate\": ") + num;
    if (r.degraded)
        line += ", \"degraded\": true";
    if (r.shed) {
        line += ", \"shed\": true";
        std::snprintf(num, sizeof(num), "%.1f", r.retryAfterMs);
        line += std::string(", \"retry_after_ms\": ") + num;
    }
    if (r.coalesced) {
        // Per-line coalescing audit trail: which in-flight leader
        // answered this request.
        line += ", \"coalesced\": true";
        line += ", \"leader_seq\": " + std::to_string(r.leaderSeq);
    }
    if (!r.error.empty())
        line += ", \"error\": \"" + jsonEscaped(r.error) + "\"";
    line += "}";
    accessLog_ << line << '\n';
    accessLog_.flush();
}

void
ServeLoop::writeStats()
{
    if (opt_.statsPath.empty())
        return;
    // Fold the engine's monotonic counters into the loop registry so
    // one snapshot carries everything; pool.* contention histograms
    // live in the process-global registry (shared by every pool),
    // and armed-failpoint hit counters land there too so a chaos
    // replay's stats artifact proves which faults actually fired.
    engine_.publishMetrics(metrics_);
    obs::Failpoints::instance().publishMetrics(
        obs::MetricsRegistry::global());
    std::ofstream out(opt_.statsPath, std::ios::trunc);
    if (!out)
        return;
    out << "{\n  \"build\": " << obs::buildInfo().toJson()
        << ",\n  \"requests_served\": " << served_
        << ",\n  \"serve\": " << metrics_.snapshot().toJson()
        << ",\n  \"process\": "
        << obs::MetricsRegistry::global().snapshot().toJson()
        << "\n}\n";
}

void
ServeLoop::drain()
{
    std::unique_lock<std::mutex> lk(mu_);
    idleCv_.wait(lk, [this] {
        return queue_.empty() && inFlight_.empty() &&
               staged_.empty();
    });
}

bool
ServeLoop::shutdown()
{
    // Whole-shutdown serialization: concurrent shutdown() calls (an
    // embedder reacting to a signal flag racing the destructor, say
    // — lego_serve's SIGINT path calls shutdown() from main while
    // the destructor is still pending) must not both reach the joins
    // below — joining one std::thread from two threads is undefined.
    // mu_ cannot be held across the joins (the server threads need
    // it to finish), hence the dedicated mutex.
    std::lock_guard<std::mutex> shutdownLk(shutdownMu_);
    {
        std::lock_guard<std::mutex> lk(mu_);
        accepting_ = false;
        paused_ = false; // A paused loop must still drain to stop.
    }
    workCv_.notify_all();
    drain();
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    workCv_.notify_all();
    watchdogCv_.notify_all();
    for (std::thread &t : servers_)
        if (t.joinable())
            t.join();
    if (watchdog_.joinable())
        watchdog_.join();
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!flushed_) {
            flushed_ = true;
            flushOk_ = opt_.dse.cachePath.empty()
                           ? true
                           : engine_.saveCache();
            // Final metrics snapshot: the server threads are joined,
            // so served_ and the registry are quiescent here.
            writeStats();
        }
        return flushOk_;
    }
}

bool
ServeLoop::accepting() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return accepting_;
}

std::vector<ServeResponse>
ServeLoop::responses() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return responses_;
}

void
ServeLoop::clearResponses()
{
    std::lock_guard<std::mutex> lk(mu_);
    responses_.clear();
}

} // namespace serve
} // namespace lego
