#include "serve/request.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>

#include "model/models.hh"
#include "obs/failpoint.hh"

namespace lego
{
namespace serve
{

namespace
{

/**
 * Minimal strict scanner for the flat request object: one level of
 * braces, string / number / string-array values, no nesting. Not a
 * general JSON parser on purpose — the wire format is fixed, and a
 * typo'd key should be a loud error, not a silently ignored field.
 */
struct Scanner
{
    const std::string &s;
    std::size_t i = 0;
    std::string err;

    explicit Scanner(const std::string &text) : s(text) {}

    void skipWs()
    {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
    }

    bool fail(const std::string &what)
    {
        err = what + " at offset " + std::to_string(i);
        return false;
    }

    bool expect(char c)
    {
        skipWs();
        if (i >= s.size() || s[i] != c)
            return fail(std::string("expected '") + c + "'");
        ++i;
        return true;
    }

    bool peek(char c)
    {
        skipWs();
        return i < s.size() && s[i] == c;
    }

    bool atEnd()
    {
        skipWs();
        return i >= s.size();
    }

    bool parseString(std::string *out)
    {
        skipWs();
        if (i >= s.size() || s[i] != '"')
            return fail("expected string");
        ++i;
        out->clear();
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\') {
                if (i + 1 >= s.size())
                    return fail("dangling escape");
                char c = s[i + 1];
                if (c == '"' || c == '\\' || c == '/')
                    out->push_back(c);
                else
                    return fail("unsupported escape");
                i += 2;
            } else {
                out->push_back(s[i++]);
            }
        }
        if (i >= s.size())
            return fail("unterminated string");
        ++i; // Closing quote.
        return true;
    }

    bool parseNumber(double *out)
    {
        skipWs();
        // std::from_chars, not strtod: the wire format must not
        // depend on the embedding application's LC_NUMERIC (strtod
        // would stop at '.' under a comma-decimal locale). Values
        // out of double range are malformed, not clamped.
        const char *begin = s.c_str() + i;
        const char *end = s.c_str() + s.size();
        double v = 0;
        std::from_chars_result r = std::from_chars(begin, end, v);
        if (r.ec != std::errc())
            return fail("expected number");
        i += std::size_t(r.ptr - begin);
        *out = v;
        return true;
    }

    bool parseStringArray(std::vector<std::string> *out)
    {
        if (!expect('['))
            return false;
        out->clear();
        if (peek(']')) {
            ++i;
            return true;
        }
        for (;;) {
            std::string item;
            if (!parseString(&item))
                return false;
            out->push_back(std::move(item));
            if (peek(']')) {
                ++i;
                return true;
            }
            if (!expect(','))
                return false;
        }
    }
};

/** Largest accepted frontier width: far beyond any real sweep's
 *  candidate count, small enough that the double -> size_t
 *  conversion below is always defined. */
constexpr std::size_t kMaxFrontierK = 1u << 20;

/** Double-quoted string literal with '"' and '\\' escaped, so
 *  formatRequest output always parses back identically. */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

std::string
lowered(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) {
                       return char(std::tolower(c));
                   });
    return out;
}

/** Registry rows in deterministic order. */
struct RegistryRow
{
    const char *name;
    Model (*make)();
};

Model makeLlama7bBs1() { return makeLlama7b(1); }
Model makeLlama7bBs32() { return makeLlama7b(32); }
Model makeBertDefault() { return makeBert(); }
Model makeGpt2Default() { return makeGpt2Decode(); }

const RegistryRow kRegistry[] = {
    {"alexnet", makeAlexNet},
    {"mobilenetv2", makeMobileNetV2},
    {"resnet50", makeResNet50},
    {"efficientnetv2", makeEfficientNetV2},
    {"bert", makeBertDefault},
    {"gpt2", makeGpt2Default},
    {"coatnet", makeCoAtNet},
    {"lenet", makeLeNet},
    {"ddpm", makeDdpm},
    {"sdunet", makeStableDiffusionUNet},
    {"llama7b", makeLlama7bBs1},
    {"llama7b-bs32", makeLlama7bBs32},
};

} // namespace

bool
lookupModel(const std::string &name, Model *out)
{
    const std::string key = lowered(name);
    for (const RegistryRow &row : kRegistry)
        if (key == row.name) {
            *out = row.make();
            return true;
        }
    return false;
}

std::vector<std::string>
modelRegistryNames()
{
    std::vector<std::string> names;
    for (const RegistryRow &row : kRegistry)
        names.push_back(row.name);
    return names;
}

bool
parseRequest(const std::string &line, ServeRequest *out,
             std::string *err)
{
    // Fault-injection seam: a parse failure must degrade to a
    // structured error response that keeps its queue position, never
    // take the loop down (tests/chaos replay arm this).
    if (obs::Failpoints::instance().fire("serve.parse")) {
        if (err)
            *err = "injected parse fault (failpoint serve.parse)";
        return false;
    }
    ServeRequest req;
    Scanner sc(line);
    // The key whose value is being parsed; errors cite it so a
    // rejected trace line says WHICH field broke, not just where.
    std::string field;
    auto bail = [&](const std::string &what) {
        if (err)
            *err = field.empty()
                       ? what
                       : "field \"" + field + "\": " + what;
        return false;
    };
    if (!sc.expect('{'))
        return bail(sc.err);
    bool first = true;
    bool haveModels = false;
    while (!sc.peek('}')) {
        field.clear();
        if (!first && !sc.expect(','))
            return bail(sc.err);
        first = false;
        std::string key;
        if (!sc.parseString(&key))
            return bail(sc.err);
        field = key;
        if (!sc.expect(':'))
            return bail(sc.err);
        if (key == "id") {
            if (!sc.parseString(&req.id))
                return bail(sc.err);
        } else if (key == "models") {
            if (!sc.parseStringArray(&req.models))
                return bail(sc.err);
            haveModels = true;
        } else if (key == "objective") {
            std::string obj;
            if (!sc.parseString(&obj))
                return bail(sc.err);
            const std::string o = lowered(obj);
            if (o == "latency")
                req.objective = Objective::Latency;
            else if (o == "energy")
                req.objective = Objective::Energy;
            else
                return bail("unknown objective \"" + obj +
                            "\" (want \"latency\" or \"energy\")");
        } else if (key == "budget") {
            if (!sc.parseNumber(&req.budget))
                return bail(sc.err);
            // strtod accepts "nan"/"inf"; both would silently
            // change meaning downstream (NaN compares unbudgeted),
            // so a finite non-negative value is required.
            if (!std::isfinite(req.budget) || req.budget < 0)
                return bail("budget must be a finite number >= 0");
        } else if (key == "k") {
            double k = 0;
            if (!sc.parseNumber(&k))
                return bail(sc.err);
            // Range-check BEFORE converting: double -> size_t is
            // undefined for out-of-range values (incl. NaN/inf).
            if (!(k >= 1 && k <= double(kMaxFrontierK)) ||
                k != double(std::size_t(k)))
                return bail("k must be an integer in [1, " +
                            std::to_string(kMaxFrontierK) + "]");
            req.frontierK = std::size_t(k);
        } else if (key == "deadline_ms") {
            if (!sc.parseNumber(&req.deadlineMs))
                return bail(sc.err);
            // Bounded above so arming the token (ms -> ns int64)
            // can never overflow; 1e12 ms is ~31 years, far beyond
            // any real deadline. NaN/inf are malformed, not "never".
            if (!std::isfinite(req.deadlineMs) ||
                req.deadlineMs < 0 || req.deadlineMs > 1e12)
                return bail("deadline_ms must be a finite number in "
                            "[0, 1e12]");
        } else if (key == "segment") {
            double v = 0;
            if (!sc.parseNumber(&v))
                return bail(sc.err);
            // Strictly 0 or 1: a typo'd value must not silently pick
            // a default (the knob flips the whole compose path).
            if (v != 0 && v != 1)
                return bail("segment must be 0 or 1");
            req.segment = v == 1;
        } else {
            return bail("unknown key \"" + key + "\"");
        }
    }
    ++sc.i; // Consume '}'.
    field.clear();
    if (!sc.atEnd())
        return bail("trailing content after request object");
    if (!haveModels || req.models.empty())
        return bail("request needs a non-empty \"models\" list");
    *out = std::move(req);
    return true;
}

bool
parseTrace(std::istream &in, std::vector<ServeRequest> *out,
           std::string *err)
{
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        std::size_t at = line.find_first_not_of(" \t\r");
        if (at == std::string::npos || line[at] == '#')
            continue;
        ServeRequest req;
        std::string lineErr;
        if (!parseRequest(line, &req, &lineErr)) {
            if (err)
                *err = "line " + std::to_string(lineNo) + ": " +
                       lineErr;
            return false;
        }
        out->push_back(std::move(req));
    }
    return true;
}

bool
parseTraceFile(const std::string &path,
               std::vector<ServeRequest> *out, std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        if (err)
            *err = "cannot open trace file " + path;
        return false;
    }
    return parseTrace(in, out, err);
}

std::string
formatRequest(const ServeRequest &req)
{
    // Plain string building and std::to_chars: iostream formatting
    // consults the global locale, and the budget needs the shortest
    // exact round-trip representation, not a fixed precision.
    std::string out = "{";
    if (!req.id.empty())
        out += "\"id\": " + quoted(req.id) + ", ";
    out += "\"models\": [";
    for (std::size_t i = 0; i < req.models.size(); ++i) {
        if (i)
            out += ", ";
        out += quoted(req.models[i]);
    }
    out += "], \"objective\": \"";
    out += req.objective == Objective::Latency ? "latency"
                                               : "energy";
    out += "\"";
    if (req.budget > 0) {
        char buf[64];
        std::to_chars_result r =
            std::to_chars(buf, buf + sizeof(buf), req.budget);
        out += ", \"budget\": " + std::string(buf, r.ptr);
    }
    out += ", \"k\": " + std::to_string(req.frontierK);
    // Emitted only when set, so deadline-free traces format (and
    // replay) byte-identically to the pre-deadline wire format.
    if (req.deadlineMs > 0) {
        char buf[64];
        std::to_chars_result r =
            std::to_chars(buf, buf + sizeof(buf), req.deadlineMs);
        out += ", \"deadline_ms\": " + std::string(buf, r.ptr);
    }
    // Emitted only when on, so pre-segmentation traces format (and
    // replay) byte-identically.
    if (req.segment)
        out += ", \"segment\": 1";
    out += "}";
    return out;
}

std::string
coalesceKey(const ServeRequest &req)
{
    // Case-folded model names IN REQUEST ORDER: the response carries
    // one schedule per model aligned with the request's list, so a
    // permutation is a DIFFERENT response and must not coalesce.
    // Budget/deadline doubles go through to_chars (shortest exact
    // round trip) so distinct values never collide. The deadline
    // contributes only its CLASS (none vs some): the leader's own
    // deadline governs the shared computation, and a follower's
    // tighter (even expired) deadline must neither cancel it nor
    // fork a separate search.
    std::string key;
    for (const std::string &name : req.models) {
        key += lowered(name);
        key += ',';
    }
    key += req.objective == Objective::Latency ? "|l|" : "|e|";
    char buf[64];
    std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), req.budget);
    key.append(buf, r.ptr);
    key += '|';
    key += std::to_string(req.frontierK);
    key += req.segment ? "|s1" : "|s0";
    key += req.deadlineMs > 0 ? "|d1" : "|d0";
    return key;
}

std::vector<ServeRequest>
demoTrace()
{
    // The lego_serve workload: classical K = 1 schedules for each
    // network and the whole zoo, then K = 8 frontier requests, then
    // budgeted compositions, then segmented schedules. The budget magnitudes sit between the
    // best-latency and min-energy extremes of the default 16x16
    // MN/IC-OC deployment config, so the composer takes real swaps.
    auto mk = [](const char *id, std::vector<std::string> models,
                 Objective obj, double budget, std::size_t k) {
        ServeRequest r;
        r.id = id;
        r.models = std::move(models);
        r.objective = obj;
        r.budget = budget;
        r.frontierK = k;
        return r;
    };
    const std::vector<std::string> zoo = {"mobilenetv2",
                                          "efficientnetv2", "bert"};
    std::vector<ServeRequest> t;
    t.push_back(mk("mbv2-classic", {"mobilenetv2"},
                   Objective::Latency, 0, 1));
    t.push_back(mk("effnet-classic", {"efficientnetv2"},
                   Objective::Latency, 0, 1));
    t.push_back(mk("bert-classic", {"bert"}, Objective::Latency, 0,
                   1));
    t.push_back(mk("zoo-classic", zoo, Objective::Latency, 0, 1));
    t.push_back(mk("mbv2-k8", {"mobilenetv2"}, Objective::Latency, 0,
                   8));
    t.push_back(mk("effnet-k8", {"efficientnetv2"},
                   Objective::Latency, 0, 8));
    t.push_back(mk("bert-k8", {"bert"}, Objective::Latency, 0, 8));
    t.push_back(mk("zoo-k8", zoo, Objective::Latency, 0, 8));
    // Budgets calibrated between the 16x16 MN/IC-OC config's
    // best-latency and min-energy extremes (lego_serve --calibrate):
    // MobileNetV2 composes between 1.878e9 and 1.906e9 pJ,
    // EfficientNetV2 between 1.7371e7 and 1.7376e7 cycles.
    t.push_back(mk("mbv2-ebudget", {"mobilenetv2"},
                   Objective::Latency, 1.89e9, 8));
    t.push_back(mk("effnet-lbudget", {"efficientnetv2"},
                   Objective::Energy, 1.7373e7, 8));
    t.push_back(mk("zoo-minenergy", zoo, Objective::Energy, 0, 8));
    t.push_back(mk("zoo-ebudget", zoo, Objective::Latency, 1.16e10,
                   8));
    // Segmentation search on: MobileNetV2 pipelines six conv pairs.
    auto seg = [](ServeRequest r) {
        r.segment = true;
        return r;
    };
    t.push_back(seg(mk("mbv2-seg", {"mobilenetv2"}, Objective::Latency,
                       0, 1)));
    t.push_back(seg(mk("zoo-seg", zoo, Objective::Latency, 0, 8)));
    return t;
}

} // namespace serve
} // namespace lego
