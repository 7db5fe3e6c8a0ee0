/**
 * @file
 * Serve-request model: the wire format of the long-lived DSE serving
 * loop (src/serve/serve_loop.hh). A request names a model zoo, an
 * objective with an optional model-level budget, and a frontier
 * width K; the loop answers with one composed schedule per model.
 *
 * Requests travel as line-delimited JSON-ish records — one flat
 * object per line, string / number / string-array values only:
 *
 *   {"id": "warmup", "models": ["mobilenetv2", "bert"],
 *    "objective": "latency", "budget": 0, "k": 1}
 *   {"models": ["efficientnetv2"], "objective": "energy",
 *    "budget": 4.0e7, "k": 8}
 *
 * Fields (only "models" is required):
 *  - id        request tag echoed in the response (default: "#<seq>")
 *  - models    registry names (see lookupModel); >= 1 entry
 *  - objective "latency" (minimize latency; budget = energy cap in
 *              pJ) or "energy" (minimize energy; budget = latency
 *              cap in cycles). Default "latency".
 *  - budget    per-model budget in the objective's unit; 0 (the
 *              default) = unbudgeted. With objective "energy" and
 *              budget 0 the latency cap is treated as unbounded, so
 *              the answer is the min-energy composition.
 *  - k         frontier width per layer (>= 1, default 1)
 *  - segment   0 or 1 (default 0). 1 runs the segmentation search
 *              (SET-style inter-layer spatial pipelining) per model
 *              and composes the schedule from the resulting segment
 *              plan; 0 keeps the layer-valued path bit-identical to
 *              a loop without the knob.
 *  - deadline_ms  soft deadline in milliseconds (> 0; 0, the
 *              default, = no deadline). The serving loop arms a
 *              CancelToken with it: sweeps and segment searches
 *              stop at their next chunk boundary once it expires
 *              and the response is composed from the best-so-far
 *              frontiers with `degraded` set. Deadline-free
 *              requests take the exact historical path.
 *
 * The parser is strict: unknown keys, malformed values, or an empty
 * model list are an error (parse errors still consume their line, so
 * a replayed trace keeps its admission ordering).
 */

#ifndef LEGO_SERVE_REQUEST_HH
#define LEGO_SERVE_REQUEST_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "model/layer.hh"

namespace lego
{
namespace serve
{

enum class Objective
{
    Latency, //!< Minimize latency under an energy budget (pJ).
    Energy,  //!< Minimize energy under a latency budget (cycles).
};

/** One admission-queue entry (see the file comment for semantics). */
struct ServeRequest
{
    std::string id;
    std::vector<std::string> models;
    Objective objective = Objective::Latency;
    double budget = 0;
    std::size_t frontierK = 1;
    bool segment = false; //!< Inter-layer pipelining search on/off.
    /** Soft deadline in ms; 0 = none (the exact, non-degradable
     *  path). Parsed strictly: finite, >= 0, <= 1e12. */
    double deadlineMs = 0;
};

/**
 * Resolve a registry name ("lenet", "mobilenetv2", "bert", ...) to a
 * freshly built model. Returns false on an unknown name. Names are
 * matched case-insensitively.
 */
bool lookupModel(const std::string &name, Model *out);

/** All registry names, in deterministic order. */
std::vector<std::string> modelRegistryNames();

/**
 * Parse one request line. On failure returns false and describes the
 * problem in *err (never partially fills *out on failure).
 */
bool parseRequest(const std::string &line, ServeRequest *out,
                  std::string *err);

/**
 * Parse a whole trace (one request per line; blank lines and
 * #-comment lines are skipped). Returns false on the first malformed
 * line, with the 1-based line number in *err.
 */
bool parseTrace(std::istream &in, std::vector<ServeRequest> *out,
                std::string *err);

/** parseTrace over a file; a missing file is an error. */
bool parseTraceFile(const std::string &path,
                    std::vector<ServeRequest> *out, std::string *err);

/** Canonical one-line serialization (parses back identically). */
std::string formatRequest(const ServeRequest &req);

/**
 * Canonical in-flight coalescing key (ServeOptions::coalesce):
 * case-folded model names in request order, objective, exact budget,
 * K, segment flag, and deadline CLASS (none vs some). Requests with
 * equal keys produce bit-identical payloads under the determinism
 * contract, so a duplicate may be answered from its leader's
 * computation. The id and the deadline VALUE are deliberately
 * excluded: the id is echo-only, and the leader's own deadline
 * governs the shared search (a follower's expired deadline must not
 * cancel the leader). Model order is preserved — schedules align
 * with the request's model list, so permutations are distinct
 * responses.
 */
std::string coalesceKey(const ServeRequest &req);

/**
 * The checked-in demo trace (examples/serve_trace.jsonl): twelve
 * requests over MobileNetV2 + EfficientNetV2 + BERT with varying
 * objectives, budgets, and K — the workload lego_serve replays and
 * test_serve's warm/cold identity test gates.
 */
std::vector<ServeRequest> demoTrace();

} // namespace serve
} // namespace lego

#endif // LEGO_SERVE_REQUEST_HH
