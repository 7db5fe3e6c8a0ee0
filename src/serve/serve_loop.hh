/**
 * @file
 * Long-lived DSE serving loop: accepts (model zoo, objective,
 * budget, K) requests, answers with composed schedules, and shares
 * ONE DseEngine — and therefore one warm CostCache — across every
 * request and, via DseOptions::cachePath, across process restarts.
 *
 * Execution model: requests enter an admission queue and are stamped
 * with a monotonically increasing sequence number; a bounded window
 * of server threads (ServeOptions::maxInFlight, default 1) pops them
 * strictly in that order, fanning each request's per-class mapping
 * sweeps across the engine's shared WorkerPool (whose parallelFor is
 * safe for concurrent callers). Each admitted request owns its own
 * result slot; completed responses are EMITTED strictly in sequence
 * order — the same per-slot/ordered-reduction pattern
 * DseEngine::explore() uses — so overlapped execution never reorders
 * the response stream. Because the evaluator is deterministic for
 * any worker count and per-request stats are attributed through
 * thread-local dse::StatsContext scopes (not global counter epochs),
 * replaying a request log is bit-reproducible: same trace in, same
 * schedules out, for 1 or N workers, 1 or N in flight, cold or warm
 * cache. maxInFlight = 1 is the exact historical single-dispatcher
 * behavior.
 *
 * In-flight coalescing (ServeOptions::coalesce, off by default): a
 * request whose canonical key (serve/request.hh coalesceKey) matches
 * a queued or in-flight request joins that leader's computation
 * instead of queuing. Followers receive the leader's bit-identical
 * payload (their own seq/id, `coalesced: true`, `leaderSeq`) with
 * ZERO evaluator work, never consume queue depth (shed interplay),
 * and never arm the leader's cancel token (a follower's expired
 * deadline cannot degrade the leader). Since a recomputed duplicate
 * would be bit-identical anyway, coalescing changes only
 * load-dependent observability fields — sameResponse is preserved.
 *
 * Robustness (see src/serve/README.md, "Failure modes &
 * degradation"): a request-level `deadline_ms` arms a CancelToken so
 * overlong sweeps answer with a best-so-far schedule flagged
 * `degraded`; a bounded admission queue (ServeOptions::maxQueueDepth)
 * sheds overload with a structured error carrying a `retry_after_ms`
 * hint; a watchdog thread flags in-flight requests stalled past
 * ServeOptions::stallTimeoutMs ("serve.stalled"); and an exception
 * escaping a request's build is caught into an error response
 * ("serve.internal_errors") instead of taking the loop down.
 * Deadline-free requests on an unsaturated loop take the exact
 * historical path — bit-identical responses.
 *
 * Shutdown: drain() blocks until every admitted request is answered
 * and emitted; shutdown() drains, stops accepting, joins the server
 * threads, and flushes the cache to DseOptions::cachePath.
 */

#ifndef LEGO_SERVE_SERVE_LOOP_HH
#define LEGO_SERVE_SERVE_LOOP_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "dse/engine.hh"
#include "obs/metrics.hh"
#include "serve/request.hh"

namespace lego
{
namespace serve
{

/** Per-request work/caching numbers. Exact even under overlapped
 *  requests: counters are attributed through the request's own
 *  dse::StatsContext, installed on every pool item that works for
 *  it. Coalesced followers report all-zero work (they did none). */
struct RequestStats
{
    dse::DseStats dse;

    /** Frontier-memo hit share of this request's frontier lookups
     *  (0 when the request made none, i.e. pure K = 1 traffic). */
    double frontierHitRate() const
    {
        const std::uint64_t total =
            dse.frontHits + dse.frontMisses;
        return total ? double(dse.frontHits) / double(total) : 0.0;
    }
};

/** The answer to one ServeRequest, in admission order. */
struct ServeResponse
{
    std::uint64_t seq = 0; //!< Admission sequence (0-based).
    std::string id;        //!< Request id, or "#<seq>" when unset.
    /** 1-based trace line the request came from (0 = direct
     *  submit()). Observability only — excluded from sameResponse,
     *  so API-submitted and line-replayed passes still compare
     *  equal. */
    std::size_t traceLine = 0;
    bool ok = false;
    std::string error;     //!< Parse / unknown-model / shed message.
    /** The request's deadline expired mid-search: schedules hold the
     *  best-so-far composition, not the full search's. */
    bool degraded = false;
    /** Rejected at admission because the queue was over
     *  maxQueueDepth (ok = false, no schedules). */
    bool shed = false;
    /** Back-off hint accompanying a shed response (0 otherwise).
     *  Load-dependent — excluded from sameResponse. */
    double retryAfterMs = 0;
    /** Answered from a concurrent identical request's computation
     *  (the leader identified by leaderSeq): payload bit-identical
     *  to what recomputation would have produced, stats all zero.
     *  Load-dependent — excluded from sameResponse, like
     *  retryAfterMs. */
    bool coalesced = false;
    std::uint64_t leaderSeq = 0; //!< Meaningful when coalesced.
    /** Admission-to-answer wall latency in ms. Load-dependent —
     *  excluded from sameResponse. */
    double latencyMs = 0;
    std::vector<std::string> models; //!< As named by the request.
    /** One composed schedule per model (empty on error). */
    std::vector<ScheduleResult> schedules;
    ComposeOptions compose; //!< The options actually applied.
    RequestStats stats;
};

/**
 * Bit-exact response equality: outcome, identity, degradation/shed
 * flags, and every composed schedule (via lego::sameSchedule). THE
 * comparator behind the replay-identity gates (cold-vs-warm, 1-vs-N
 * workers, 1-vs-N in flight) in lego_serve, bench_serve_load,
 * and tests/test_serve.cc — shared so the gates
 * cannot drift apart. Stats, retryAfterMs, latencyMs, and
 * coalesced/leaderSeq are deliberately excluded: cache-tier counts
 * and load artifacts legitimately differ between passes (a coalesced
 * follower's payload is bit-identical to recomputation by the
 * determinism contract, so excluding the flag is sound).
 */
bool sameResponse(const ServeResponse &a, const ServeResponse &b);

struct ServeOptions
{
    /** The deployed accelerator instance requests are mapped onto. */
    HardwareConfig hw;
    /**
     * Engine knobs: threads sizes the worker pool shared by all
     * requests, cachePath warm-starts the shared cache at
     * construction and is flushed by shutdown(). Strategy fields are
     * unused (serving maps; it does not explore hardware).
     */
    dse::DseOptions dse;
    /**
     * @name Observability sinks — optional, strictly off the result
     * path (schedules are bit-identical with these on or off).
     * @{
     */
    /** Append one JSON line per answered request — including parse
     *  rejections — to this file ("" = no access log). */
    std::string accessLogPath;
    /** Write a full metrics snapshot (build info + serve registry +
     *  engine counters + process-global pool metrics) to this file
     *  ("" = never). Rewritten in place on every snapshot. */
    std::string statsPath;
    /** Snapshot statsPath every N answered requests; 0 = only at
     *  shutdown (shutdown always snapshots when statsPath is set). */
    std::size_t statsEvery = 0;
    /** @} */
    /**
     * Published shared-cache snapshot to attach as the read-mostly
     * mmap tier ("" = none): N serve processes on one box map the
     * same file and share its warm entries copy-free. The loop
     * re-checks the published generation before building each
     * request and atomically remaps when a writer republished
     * (counted in dse.cache.remaps). Reader role only — the loop
     * never writes this path; publishing stays the single writer's
     * job via DseOptions::cachePath + saveCache(). See
     * serve/README.md "Multi-process deployment".
     */
    std::string sharedCachePath;
    /**
     * @name Concurrency
     * @{
     */
    /** Server threads popping the admission queue: up to this many
     *  requests build concurrently over the shared WorkerPool, with
     *  responses still emitted in strict sequence order. 1 (the
     *  default) is the exact historical single-dispatcher loop,
     *  bit for bit. */
    std::size_t maxInFlight = 1;
    /** Join duplicate requests (equal coalesceKey) onto one
     *  computation while the leader is queued or in flight. Off by
     *  default: coalescing changes observable load behavior
     *  (duplicates stop consuming queue depth, so they can no
     *  longer shed), and historical replays must stay byte-exact.
     *  The payload itself is bit-identical either way. */
    bool coalesce = false;
    /** @} */
    /**
     * @name Overload control
     * @{
     */
    /** Admission-queue bound: a request arriving while maxQueueDepth
     *  entries are already waiting is shed — it keeps its sequence
     *  slot but is answered in place with ok = false, shed = true,
     *  and a retry_after_ms hint. 0 (the default) = unbounded, the
     *  exact historical admission behavior. Coalesced joins bypass
     *  this check — they consume no queue slot. */
    std::size_t maxQueueDepth = 0;
    /** Watchdog threshold in ms: a request in flight longer than
     *  this is counted once in "serve.stalled" and logged to stderr
     *  (observational only — the sweep is never killed; deadlines
     *  are the cooperative bound). 0 disables the watchdog. */
    double stallTimeoutMs = 30000;
    /** @} */
};

class ServeLoop
{
  public:
    /** submit() return value once the loop stops accepting. */
    static constexpr std::uint64_t kRejected = ~std::uint64_t(0);

    explicit ServeLoop(ServeOptions opt);
    ~ServeLoop(); //!< Implies shutdown().

    ServeLoop(const ServeLoop &) = delete;
    ServeLoop &operator=(const ServeLoop &) = delete;

    /**
     * Enqueue a request; returns its admission sequence number, or
     * kRejected after shutdown(). Responses appear in sequence
     * order regardless of per-request cost.
     */
    std::uint64_t submit(ServeRequest req);

    /**
     * Parse one trace line and enqueue it. A malformed line is still
     * admitted — as an error response holding the parse message (with
     * the offending field, and the 1-based lineNo when given) — so a
     * replayed log keeps its exact admission ordering, and the access
     * log records rejected requests alongside served ones.
     */
    std::uint64_t submitLine(const std::string &line,
                             std::size_t lineNo = 0);

    /**
     * @name Dispatch gate
     * Hold the server threads while admission continues: pause()
     * lets a caller batch submissions so queue-dependent behavior
     * (coalescing joins, shed decisions) is deterministic — the test
     * and load-harness lever, also usable as an operational drain
     * valve. drain() blocks while paused with work queued;
     * shutdown() resumes implicitly.
     * @{
     */
    void pause();
    void resume();
    /** @} */

    /** Block until every admitted request has been answered. */
    void drain();

    /**
     * Drain, stop accepting, join the server threads, and flush the
     * cache. Returns false only when a configured cachePath could
     * not be written (no cachePath = nothing to flush = true).
     * Idempotent: later calls return the first flush's status.
     */
    bool shutdown();

    /** Still accepting submissions? */
    bool accepting() const;

    /** Responses answered so far, in admission order (snapshot). */
    std::vector<ServeResponse> responses() const;

    /** Forget answered responses (long-lived loops trim memory). */
    void clearResponses();

    /** The shared engine (cache / pool / evaluator introspection). */
    dse::DseEngine &engine() { return engine_; }
    const dse::DseEngine &engine() const { return engine_; }
    const ServeOptions &options() const { return opt_; }

    /**
     * This loop's metrics registry: serve.requests / serve.errors /
     * serve.coalesced counters, the serve.queue_depth and
     * serve.in_flight gauges, and serve.{queue,sweep,compose,
     * request}_us latency histograms, plus the dse.* engine counters
     * mirrored in by each stats snapshot (full name map in
     * src/obs/README.md).
     */
    obs::MetricsRegistry &metrics() { return metrics_; }

  private:
    /** One admission-queue slot: a request, its parse failure, or a
     *  shed marker (shed entries keep their queue position so replay
     *  ordering — and therefore determinism — survives overload).
     *  Held by shared_ptr so the coalescing leader index can point
     *  at it while queued OR in flight. */
    struct Pending
    {
        std::uint64_t seq = 0;
        std::size_t lineNo = 0;   //!< 1-based trace line (0 = API).
        std::uint64_t admitNs = 0; //!< Admission stamp (queue wait).
        bool parseOk = true;
        bool shed = false;        //!< Rejected at admission.
        double retryAfterMs = 0;  //!< Hint computed at shed time.
        std::string error;
        ServeRequest req;
        /** Coalescing key while this entry leads ("" = not
         *  coalescable or coalescing off). Guarded by mu_. */
        std::string key;
        /** Duplicates that joined this leader; answered from its
         *  response when it completes. Guarded by mu_. */
        std::vector<Pending> followers;
    };

    /** A completed response staged for in-order emission. */
    struct Staged
    {
        ServeResponse r;
        double queueUs = 0;
        double wallUs = 0;
    };

    void serverLoop();
    void watchdogLoop();
    ServeResponse serveOne(const Pending &p, double queueUs,
                           double *wallUs);
    ServeResponse buildResponse(const Pending &p);
    std::uint64_t admit(Pending p);
    /** Stage a finished leader (+ its followers' copies) and emit
     *  every response whose turn has come, in sequence order. */
    void finish(const std::shared_ptr<Pending> &p, Staged s);
    /** Under mu_: append ready responses to responses_, write the
     *  access log, and snapshot stats — strictly at nextEmit_. */
    void emitReadyLocked();
    /** Back-off hint for a shed response: the estimated queue drain
     *  time — mean observed request latency times the queue ahead of
     *  the caller, divided by the in-flight parallelism actually
     *  draining it. */
    double retryAfterHint(std::size_t depth);
    void logAccess(const ServeResponse &r, double queueUs,
                   double wallUs);
    void writeStats();

    ServeOptions opt_;
    dse::DseEngine engine_;
    obs::MetricsRegistry metrics_;
    std::ofstream accessLog_; //!< Written under mu_ (emission only).
    std::uint64_t served_ = 0; //!< Emitted responses (under mu_).

    /** Serializes shutdown() bodies (the server-thread joins cannot
     *  run under mu_, and two joiners would be undefined behavior). */
    std::mutex shutdownMu_;
    mutable std::mutex mu_;
    std::condition_variable workCv_; //!< Queue gained work / stopping.
    std::condition_variable idleCv_; //!< A response landed.
    std::deque<std::shared_ptr<Pending>> queue_;
    /** Coalescing leader index: key -> the queued or in-flight
     *  entry a duplicate may join. Entries are removed when their
     *  leader completes (followers are answered at that moment). */
    std::unordered_map<std::string, std::shared_ptr<Pending>>
        leaders_;
    /** Completed-but-unemitted responses, keyed by seq; emitted the
     *  moment they become the head of the sequence. */
    std::map<std::uint64_t, Staged> staged_;
    std::uint64_t nextEmit_ = 0; //!< Next seq to emit.
    std::vector<ServeResponse> responses_;
    std::uint64_t nextSeq_ = 0;
    bool paused_ = false;
    bool accepting_ = true;
    bool stop_ = false;
    bool flushed_ = false;   //!< shutdown() ran its flush already.
    bool flushOk_ = true;
    std::vector<std::thread> servers_; //!< maxInFlight threads.

    /** @name Watchdog state (under mu_)
     *  Server threads stamp each in-flight request's start before
     *  building it; the watchdog thread polls the table and counts a
     *  stall once per request when a build outlives
     *  stallTimeoutMs. @{ */
    struct InFlight
    {
        std::uint64_t startNs = 0;
        bool stalled = false; //!< Already counted.
    };
    std::condition_variable watchdogCv_; //!< Wakes for shutdown.
    std::map<std::uint64_t, InFlight> inFlight_; //!< By seq.
    std::thread watchdog_;
    /** @} */
};

} // namespace serve
} // namespace lego

#endif // LEGO_SERVE_SERVE_LOOP_HH
