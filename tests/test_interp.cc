/**
 * @file
 * Differential tests of the two executors that check every generated
 * design: the cycle-accurate interpreter (runOnHardware) and the
 * golden loop-nest executor (runReference). Each is compared against
 * a plain test-only oracle — the straightforward per-cycle and
 * per-iteration-point loops — on every config of the eleven Fig. 10
 * designs, several input seeds, and the codegen DAG both before and
 * after delay matching. Outputs, every tensor and all four
 * InterpStats fields must agree exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/lattice.hh"
#include "kernels.hh"

namespace lego
{
namespace
{

/**
 * Test-only reference interpreter: one history vector per node over
 * all cycles, in-edges rescanned on every read. Same interface and
 * semantics as runOnHardware.
 */
InterpStats
ReferenceInterp(const CodegenResult &gen, const Adg &adg, int cfg,
                TensorSet &ts)
{
    constexpr Int kUndef = std::numeric_limits<Int>::min() / 2;
    constexpr Int kInvalidAddr = -1;

    const Dag &dag = gen.dag;
    const DataflowMapping &map = adg.configs.at(size_t(cfg)).map;
    const Workload &w = *adg.configs[size_t(cfg)].workload;
    const Int steps = map.timeSteps();

    std::vector<int> topo = dag.topoOrder(cfg);

    // Static pipeline depth + max programmed delay bound the drain.
    std::vector<Int> depth(size_t(dag.numNodes()), 0);
    for (int v : topo) {
        for (int e : dag.inEdges(v)) {
            const DagEdge &edge = dag.edge(e);
            if (edge.dead || !edge.activeFor(cfg))
                continue;
            depth[size_t(v)] = std::max(
                depth[size_t(v)], depth[size_t(edge.from)] +
                                      edge.delayFor(cfg) +
                                      dag.node(v).latency);
        }
    }
    Int pipe = 0;
    for (Int d : depth)
        pipe = std::max(pipe, d);
    Int max_skew = 0;
    for (int fu = 0; fu < adg.numFus(); fu++)
        max_skew = std::max(max_skew, map.tbias(map.fuCoord(fu)));
    const Int cycles = steps + pipe + max_skew + 4;

    // Per-node output history.
    std::vector<std::vector<Int>> hist(
        size_t(dag.numNodes()),
        std::vector<Int>(size_t(cycles), kUndef));

    InterpStats stats;
    stats.cycles = cycles;
    stats.pipelineDepth = pipe;

    // Tensor binding per memory port for this config.
    auto tensorFor = [&](const DagNode &n) {
        return n.memPort >= 0 ? adg.tensorOfPort(cfg, n.memPort, false)
                              : w.outputTensor();
    };

    auto input = [&](int v, int pin, Int g) -> Int {
        int e = -1;
        for (int cand : dag.inEdges(v)) {
            const DagEdge &edge = dag.edge(cand);
            if (edge.dead || edge.toPin != pin)
                continue;
            e = cand;
            break;
        }
        if (e < 0)
            return kUndef;
        const DagEdge &edge = dag.edge(e);
        Int t = g - edge.delayFor(cfg);
        if (t < 0)
            return kUndef;
        return hist[size_t(edge.from)][size_t(t)];
    };

    for (Int g = 0; g < cycles; g++) {
        for (int v : topo) {
            const DagNode &n = dag.node(v);
            if (n.dead)
                continue;
            Int tin = g - n.latency; // Inputs sampled at this cycle.
            Int out = kUndef;
            switch (n.op) {
              case PrimOp::Const:
                out = n.constValue;
                break;
              case PrimOp::Counter:
                out = tin >= 0 ? tin : kUndef;
                break;
              case PrimOp::Tap: {
                if (tin >= 0)
                    out = input(v, 0, tin);
                break;
              }
              case PrimOp::AddrGen: {
                if (tin < 0)
                    break;
                Int local = input(v, 0, tin);
                const AffineAddr &a = n.addr.at(size_t(cfg));
                if (local == kUndef || !a.valid || local < 0 ||
                    local >= steps) {
                    out = kInvalidAddr;
                    break;
                }
                IntVec digits =
                    mixedRadixDigits(local, n.radix.at(size_t(cfg)));
                out = dot(a.coefT, digits) + a.bias;
                break;
              }
              case PrimOp::Valid: {
                if (tin < 0)
                    break;
                Int local = input(v, 0, tin);
                const IntVec &dt = n.validDt.at(size_t(cfg));
                if (local == kUndef || local < 0 || local >= steps) {
                    out = 0;
                    break;
                }
                if (dt.empty()) {
                    out = 1; // No FIFO in this config: always valid.
                    break;
                }
                // FIFO data valid iff t - dt is digit-wise in range.
                const IntVec &radix = n.radix.at(size_t(cfg));
                IntVec digits = mixedRadixDigits(local, radix);
                out = 1;
                for (size_t i = 0; i < digits.size(); i++) {
                    Int d = digits[i] - dt[i];
                    if (d < 0 || d >= radix[i])
                        out = 0;
                }
                break;
              }
              case PrimOp::MemRead: {
                if (tin < 0)
                    break;
                Int addr = input(v, 0, tin);
                if (addr == kUndef || addr == kInvalidAddr)
                    break;
                int tensor = tensorFor(n);
                out = ts[tensor].flat(size_t(addr));
                stats.reads++;
                break;
              }
              case PrimOp::MemWrite: {
                if (tin < 0)
                    break;
                // Side effect at cycle g; no output.
                int e = -1;
                for (int cand : dag.inEdges(v))
                    if (!dag.edge(cand).dead &&
                        dag.edge(cand).toPin == 0 &&
                        dag.edge(cand).activeFor(cfg))
                        e = cand;
                if (e < 0)
                    break;
                Int data = input(v, 0, tin);
                Int addr = input(v, 1, tin);
                if (addr == kUndef || addr == kInvalidAddr ||
                    data == kUndef)
                    break;
                int tensor = tensorFor(n);
                if (n.accumulate && n.maxAccum)
                    ts[tensor].flat(size_t(addr)) =
                        std::max(ts[tensor].flat(size_t(addr)), data);
                else if (n.accumulate)
                    ts[tensor].flat(size_t(addr)) += data;
                else
                    ts[tensor].flat(size_t(addr)) = data;
                stats.writes++;
                break;
              }
              case PrimOp::Mul: {
                if (tin < 0)
                    break;
                Int a = input(v, 0, tin), b = input(v, 1, tin);
                out = (a == kUndef || b == kUndef) ? kUndef : a * b;
                break;
              }
              case PrimOp::Add: {
                if (tin < 0)
                    break;
                Int a = input(v, 0, tin), b = input(v, 1, tin);
                out = (a == kUndef || b == kUndef) ? kUndef : a + b;
                break;
              }
              case PrimOp::Shl: {
                if (tin < 0)
                    break;
                Int a = input(v, 0, tin), b = input(v, 1, tin);
                // Scale by 2^shift with a multiply: the shifted value
                // can be negative, and shifting it left is UB even
                // though the hardware shifter's two's-complement
                // result is exactly this product.
                out = (a == kUndef || b == kUndef)
                          ? kUndef
                          : a * (Int(1) << (b & 0x3));
                break;
              }
              case PrimOp::Max: {
                if (tin < 0)
                    break;
                Int a = input(v, 0, tin), b = input(v, 1, tin);
                out = (a == kUndef || b == kUndef) ? kUndef
                                                   : std::max(a, b);
                break;
              }
              case PrimOp::Mux: {
                if (tin < 0)
                    break;
                int sel = n.muxSel.empty() ? 0
                                           : n.muxSel.at(size_t(cfg));
                if (sel == -2) {
                    // Dynamic: FIFO data when the valid comparator
                    // says so, memory fallback otherwise.
                    Int ok = input(v, n.selPin, tin);
                    auto [vp, ip] = n.dynPins.at(size_t(cfg));
                    sel = (ok == 1) ? vp : ip;
                }
                if (sel < 0)
                    break; // Operand unused in this config.
                out = input(v, sel, tin);
                break;
              }
              case PrimOp::Reduce: {
                if (tin < 0)
                    break;
                // Sum over physical pins mapped for this config.
                Int acc = 0;
                bool any = false, undef = false;
                const auto &pins = n.pinMap.at(size_t(cfg));
                for (size_t p = 0; p < pins.size(); p++) {
                    if (pins[p] < 0)
                        continue;
                    Int val = input(v, int(p), tin);
                    if (val == kUndef)
                        undef = true;
                    else {
                        acc += val;
                        any = true;
                    }
                }
                out = undef || !any ? kUndef : acc;
                break;
              }
              case PrimOp::Fifo:
              case PrimOp::Sink: {
                if (tin >= 0)
                    out = input(v, 0, tin);
                break;
              }
            }
            hist[size_t(v)][size_t(g)] = out;
        }
    }
    return stats;
}

/**
 * Test-only reference loop-nest executor: applyBody at every
 * iteration point in row-major order. Same semantics as runReference.
 */
void
ReferenceLoopNest(const Workload &w, TensorSet &ts)
{
    const int nd = int(w.iterDims.size());
    IntVec iter(nd, 0);
    bool done = false;
    while (!done) {
        applyBody(w, ts, iter);
        int pos = nd - 1;
        while (pos >= 0) {
            if (++iter[pos] < w.iterSizes[pos])
                break;
            iter[pos] = 0;
            pos--;
        }
        if (pos < 0)
            done = true;
    }
}

constexpr unsigned kSeeds[] = {1, 7, 99};

void
expectSameTensors(const TensorSet &a, const TensorSet &b,
                  const std::string &what)
{
    ASSERT_EQ(a.tensors.size(), b.tensors.size()) << what;
    for (size_t t = 0; t < a.tensors.size(); t++)
        EXPECT_TRUE(a.tensors[t] == b.tensors[t])
            << what << ": tensor " << t << " differs";
}

/** Run both interpreters on every config of `gen` and compare. */
void
expectInterpretersAgree(const CodegenResult &gen, const Adg &adg,
                        const std::string &what)
{
    for (int cfg = 0; cfg < int(adg.configs.size()); cfg++) {
        const Workload &w = *adg.configs[size_t(cfg)].workload;
        for (unsigned seed : kSeeds) {
            const std::string tag = what + " cfg " +
                                    std::to_string(cfg) + " seed " +
                                    std::to_string(seed);
            TensorSet want = makeInputs(w, seed);
            TensorSet got = makeInputs(w, seed);
            InterpStats ws = ReferenceInterp(gen, adg, cfg, want);
            InterpStats gs = runOnHardware(gen, adg, cfg, got);
            EXPECT_EQ(gs.cycles, ws.cycles) << tag;
            EXPECT_EQ(gs.reads, ws.reads) << tag;
            EXPECT_EQ(gs.writes, ws.writes) << tag;
            EXPECT_EQ(gs.pipelineDepth, ws.pipelineDepth) << tag;
            expectSameTensors(got, want, tag);
        }
    }
}

TEST(Interp, MatchesReferenceInterpOnFig10Designs)
{
    std::vector<NamedDesign> designs = fig10Designs();
    ASSERT_EQ(designs.size(), 11u);
    for (NamedDesign &d : designs) {
        Adg adg = generateArchitecture(d.configs);
        CodegenResult gen = codegen(adg);
        // Before delay matching the outputs are wrong, but both
        // interpreters must compute the same wrong outputs.
        expectInterpretersAgree(gen, adg, d.name + " (unmatched)");
        runDelayMatching(gen.dag);
        gen.dag.validate();
        expectInterpretersAgree(gen, adg, d.name);
        // And once matched, the design computes the golden result.
        for (int cfg = 0; cfg < int(adg.configs.size()); cfg++)
            EXPECT_TRUE(verifyAgainstReference(gen, adg, cfg, kSeeds[0]))
                << d.name << " cfg " << cfg;
    }
}

TEST(Interp, OutOfRangeAddressPanics)
{
    // Push one memory port's address generator past the end of its
    // tensor: the interpreter must fail, naming the port, rather
    // than read or write outside the tensor.
    Workload w = makeGemm(8, 8, 8);
    DataflowSpec spec =
        makeSimpleSpec(w, "gemm_ij", {{"i", 4}, {"j", 4}}, false);
    Adg adg = generateArchitecture({{&w, buildDataflow(w, spec)}});
    CodegenResult gen = codegen(adg);
    runDelayMatching(gen.dag);
    ASSERT_TRUE(verifyAgainstReference(gen, adg, 0, kSeeds[0]));

    std::vector<int> gens = gen.dag.nodesOf(PrimOp::AddrGen);
    auto used = std::find_if(gens.begin(), gens.end(), [&](int v) {
        return gen.dag.node(v).addr.at(0).valid;
    });
    ASSERT_NE(used, gens.end());
    gen.dag.node(*used).addr[0].bias += 1 << 20;
    TensorSet ts = makeInputs(w, kSeeds[0]);
    EXPECT_THROW(runOnHardware(gen, adg, 0, ts), PanicError);
}

TEST(Interp, SameCycleReadFollowsEvaluationOrder)
{
    // An edge inactive in the config does not order the topological
    // sort, yet it is still the edge its pin reads. With no delay, its
    // producer's value of the current cycle only exists if the
    // producer was evaluated first; here it comes later, so the sum
    // is undefined and nothing is written.
    Workload w = makeGemm(4, 4, 4);
    DataflowSpec spec =
        makeSimpleSpec(w, "gemm_ij", {{"i", 2}, {"j", 2}}, false);
    Adg adg = generateArchitecture({{&w, buildDataflow(w, spec)}});

    CodegenResult gen;
    gen.dag = Dag(1);
    Dag &dag = gen.dag;
    auto node = [&](PrimOp op, const std::string &name) {
        DagNode n;
        n.op = op;
        n.name = name;
        n.constValue = 5;
        return dag.addNode(n);
    };
    auto edge = [&](int from, int to, int pin, bool active) {
        DagEdge e;
        e.from = from;
        e.to = to;
        e.toPin = pin;
        e.active = {active};
        return dag.addEdge(e);
    };
    const int sum = node(PrimOp::Add, "sum");
    const int tap = node(PrimOp::Tap, "tap");
    const int five = node(PrimOp::Const, "five");
    const int zero = node(PrimOp::Const, "zero");
    dag.node(zero).constValue = 0;
    const int store = node(PrimOp::MemWrite, "store");
    edge(five, sum, 1, true); // Orders sum before tap.
    edge(five, tap, 0, true);
    const int feedback = edge(tap, sum, 0, false);
    edge(sum, store, 0, true);
    edge(zero, store, 1, true);
    dag.validate();
    std::vector<int> order = dag.topoOrder(0);
    ASSERT_LT(std::find(order.begin(), order.end(), sum),
              std::find(order.begin(), order.end(), tap));

    TensorSet want = makeInputs(w, 1), got = makeInputs(w, 1);
    InterpStats ws = ReferenceInterp(gen, adg, 0, want);
    InterpStats gs = runOnHardware(gen, adg, 0, got);
    EXPECT_EQ(ws.writes, 0);
    EXPECT_EQ(gs.writes, ws.writes);
    expectSameTensors(got, want, "same-cycle read");

    // With one register on the edge the previous cycle's value is
    // defined, and every cycle stores 5 + 5.
    dag.edge(feedback).regs = 1;
    want = makeInputs(w, 1);
    got = makeInputs(w, 1);
    ws = ReferenceInterp(gen, adg, 0, want);
    gs = runOnHardware(gen, adg, 0, got);
    EXPECT_EQ(ws.writes, ws.cycles - 1);
    EXPECT_EQ(gs.writes, ws.writes);
    EXPECT_EQ(got[w.outputTensor()].flat(0), 10);
    expectSameTensors(got, want, "registered read");
}

TEST(Reference, MatchesLoopNestOracleOnFig10Workloads)
{
    std::vector<NamedDesign> designs = fig10Designs();
    for (const NamedDesign &d : designs) {
        for (const auto &w : d.workloads) {
            for (unsigned seed : kSeeds) {
                TensorSet want = makeInputs(*w, seed);
                TensorSet got = makeInputs(*w, seed);
                ReferenceLoopNest(*w, want);
                runReference(*w, got);
                expectSameTensors(got, want,
                                  d.name + " " + w->name + " seed " +
                                      std::to_string(seed));
            }
        }
    }
}

TEST(Reference, MatchesLoopNestOracleOnEveryOpKind)
{
    // Accumulating into a non-zero output covers read-modify-write
    // (and max for pooling) rather than plain stores.
    std::vector<Workload> ws = {
        makeGemm(3, 5, 7),
        makeConv2d(2, 3, 4, 5, 3, 3, 2),
        makeDepthwiseConv2d(1, 3, 4, 5, 3, 2),
        makeMttkrp(3, 4, 5, 2),
        makeBitFusionGemm(4, 3, 5),
        makeAttentionScore(6, 3),
        makeAttentionContext(6, 3),
    };
    Workload pool = makeDepthwiseConv2d(1, 2, 3, 3, 2, 2);
    pool.op = OpKind::MaxReduce;
    const int weights = pool.tensorIndex("W");
    pool.tensors.erase(pool.tensors.begin() + weights);
    pool.mappings.erase(pool.mappings.begin() + weights);
    ws.push_back(pool);
    for (const Workload &w : ws) {
        for (unsigned seed : kSeeds) {
            TensorSet want = makeInputs(w, seed);
            want[w.outputTensor()].fillPattern(seed + 1);
            TensorSet got = want;
            ReferenceLoopNest(w, want);
            runReference(w, got);
            expectSameTensors(got, want,
                              w.name + " seed " + std::to_string(seed));
        }
    }
}

} // namespace
} // namespace lego
