#include "backend/interp.hh"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

namespace lego
{

namespace
{

constexpr Int kUndef = std::numeric_limits<Int>::min() / 2;
constexpr Int kInvalidAddr = -1;

/**
 * One input of a step: the producer's column in the history and how
 * many cycles back it is read (consumer latency + edge delay).
 */
struct Pin
{
    int src = 0;
    int back = 0;
};

/** What a step computes; PrimOps with the same rule share a kind. */
enum class Kind : std::uint8_t
{
    Const,
    Counter,
    Copy, // Tap, Fifo, Sink, and a Mux with a static select.
    AddrGen,
    Valid,
    MemRead,
    MemWrite,
    Mul,
    Add,
    Shl,
    Max,
    DynMux, // in = {valid select, pin when valid, pin when not}.
    Reduce, // in = the physical pins mapped in this config.
    Idle,   // A MemWrite with no active data edge: never fires.
};

/** One live node of the config, with its payload picked out. */
struct Step
{
    Kind kind = Kind::Idle;
    int node = -1;
    Int latency = 0;
    int in = 0;  //!< First of this step's pins in Program::pins.
    int nin = 0; //!< Pin count.
    Int value = 0; //!< Const: value. AddrGen: bias.
    bool valid = false; //!< AddrGen: the generator is used.
    const Int *coef = nullptr;  //!< AddrGen: per-digit coefficient.
    const Int *radix = nullptr; //!< AddrGen, Valid: loop radix.
    const Int *dt = nullptr;    //!< Valid: FIFO offset; null = always.
    int digits = 0;             //!< Length of radix (coef, dt).
    Int *mem = nullptr; //!< MemRead/MemWrite: bound tensor's data.
    Int memSize = 0;
    bool accumulate = false, maxAccum = false;
};

/**
 * A config elaborated into straight-line form: the live nodes in
 * topological order with every input resolved to a history column.
 * Column `steps.size()` is never written and always reads undefined.
 */
struct Program
{
    std::vector<Step> steps;
    std::vector<Pin> pins;
    Int rows = 1; //!< History ring depth: deepest look-back + 1.
    Int cycles = 0;
    Int pipelineDepth = 0;
};

Program
elaborate(const Dag &dag, const Adg &adg, int cfg, TensorSet &ts)
{
    const DataflowMapping &map = adg.configs.at(size_t(cfg)).map;
    const Workload &w = *adg.configs[size_t(cfg)].workload;
    const size_t c = size_t(cfg);
    Program prog;

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
    for (Int d : depth)
        prog.pipelineDepth = std::max(prog.pipelineDepth, d);
    Int max_skew = 0;
    for (int fu = 0; fu < adg.numFus(); fu++)
        max_skew = std::max(max_skew, map.tbias(map.fuCoord(fu)));
    prog.cycles =
        map.timeSteps() + prog.pipelineDepth + max_skew + 4;

    std::vector<int> column(size_t(dag.numNodes()), -1);
    for (int v : topo) {
        if (dag.node(v).dead)
            continue;
        column[size_t(v)] = int(prog.steps.size());
        prog.steps.emplace_back().node = v;
    }
    const int undef = int(prog.steps.size());

    // A pin reads the first non-dead edge into it, whether or not the
    // edge is active in this config. Reading a node in the cycle it
    // is computed only sees its value if it comes earlier in the
    // order; otherwise, or with no live producer, the read is
    // undefined.
    auto pin = [&](int v, int p) {
        Pin r{undef, 0};
        for (int e : dag.inEdges(v)) {
            const DagEdge &edge = dag.edge(e);
            if (edge.dead || edge.toPin != p)
                continue;
            const int src = column[size_t(edge.from)];
            const Int back = dag.node(v).latency + edge.delayFor(cfg);
            if (src >= 0 && back >= 0 &&
                (back > 0 || src < column[size_t(v)])) {
                r = {src, int(back)};
                prog.rows = std::max(prog.rows, back + 1);
            }
            break;
        }
        prog.pins.push_back(r);
    };

    for (Step &s : prog.steps) {
        const DagNode &n = dag.node(s.node);
        s.latency = n.latency;
        s.in = int(prog.pins.size());
        auto bindMemory = [&]() {
            const int t = n.memPort >= 0
                              ? adg.tensorOfPort(cfg, n.memPort, false)
                              : w.outputTensor();
            if (t >= 0 && size_t(t) < ts.tensors.size()) {
                s.mem = &ts[t].flat(0);
                s.memSize = Int(ts[t].size());
            }
        };
        switch (n.op) {
          case PrimOp::Const:
            s.kind = Kind::Const;
            s.value = n.constValue;
            break;
          case PrimOp::Counter:
            s.kind = Kind::Counter;
            break;
          case PrimOp::Tap:
          case PrimOp::Fifo:
          case PrimOp::Sink:
            s.kind = Kind::Copy;
            pin(s.node, 0);
            break;
          case PrimOp::AddrGen: {
            s.kind = Kind::AddrGen;
            pin(s.node, 0);
            const AffineAddr &a = n.addr.at(c);
            s.valid = a.valid;
            if (!a.valid)
                break;
            const IntVec &radix = n.radix.at(c);
            if (a.coefT.size() != radix.size())
                panic("runOnHardware: address rank mismatch at " +
                      n.name);
            s.value = a.bias;
            s.coef = a.coefT.data();
            s.radix = radix.data();
            s.digits = int(radix.size());
            break;
          }
          case PrimOp::Valid: {
            s.kind = Kind::Valid;
            pin(s.node, 0);
            const IntVec &dt = n.validDt.at(c);
            if (dt.empty())
                break;
            const IntVec &radix = n.radix.at(c);
            if (dt.size() != radix.size())
                panic("runOnHardware: FIFO offset rank mismatch at " +
                      n.name);
            s.dt = dt.data();
            s.radix = radix.data();
            s.digits = int(radix.size());
            break;
          }
          case PrimOp::MemRead:
            s.kind = Kind::MemRead;
            pin(s.node, 0);
            bindMemory();
            break;
          case PrimOp::MemWrite: {
            bool fires = false;
            for (int e : dag.inEdges(s.node)) {
                const DagEdge &edge = dag.edge(e);
                fires |= !edge.dead && edge.toPin == 0 &&
                         edge.activeFor(cfg);
            }
            if (!fires)
                break; // Kind::Idle.
            s.kind = Kind::MemWrite;
            pin(s.node, 0); // Data.
            pin(s.node, 1); // Address.
            bindMemory();
            s.accumulate = n.accumulate;
            s.maxAccum = n.maxAccum;
            break;
          }
          case PrimOp::Mul:
          case PrimOp::Add:
          case PrimOp::Shl:
          case PrimOp::Max:
            s.kind = n.op == PrimOp::Mul   ? Kind::Mul
                     : n.op == PrimOp::Add ? Kind::Add
                     : n.op == PrimOp::Shl ? Kind::Shl
                                           : Kind::Max;
            pin(s.node, 0);
            pin(s.node, 1);
            break;
          case PrimOp::Mux: {
            const int sel = n.muxSel.empty() ? 0 : n.muxSel.at(c);
            if (sel == -2) {
                // Dynamic: FIFO data when the valid comparator says
                // so, memory fallback otherwise.
                s.kind = Kind::DynMux;
                auto [vp, ip] = n.dynPins.at(c);
                pin(s.node, n.selPin);
                pin(s.node, vp);
                pin(s.node, ip);
            } else {
                // A negative select (operand unused in this config)
                // matches no edge and reads undefined.
                s.kind = Kind::Copy;
                pin(s.node, sel);
            }
            break;
          }
          case PrimOp::Reduce: {
            s.kind = Kind::Reduce;
            const auto &pins = n.pinMap.at(c);
            for (size_t p = 0; p < pins.size(); p++)
                if (pins[p] >= 0)
                    pin(s.node, int(p));
            break;
          }
        }
        s.nin = int(prog.pins.size()) - s.in;
    }
    return prog;
}

[[noreturn]] void
outOfRange(const Dag &dag, const Step &s, Int addr)
{
    panic("runOnHardware: " + dag.node(s.node).name + " address " +
          std::to_string(addr) + " outside its tensor of " +
          std::to_string(s.memSize) + " words");
}

} // namespace

InterpStats
runOnHardware(const CodegenResult &gen, const Adg &adg, int cfg,
              TensorSet &ts)
{
    const Dag &dag = gen.dag;
    const Program prog = elaborate(dag, adg, cfg, ts);
    const Int time_steps = adg.configs[size_t(cfg)].map.timeSteps();

    InterpStats stats;
    stats.cycles = prog.cycles;
    stats.pipelineDepth = prog.pipelineDepth;

    // Time-major ring of the last `rows` cycles' outputs, one column
    // per step plus the never-written undefined column. Rows not yet
    // written hold kUndef, which is also what reads before cycle 0
    // must see.
    const size_t width = prog.steps.size() + 1;
    const Int rows = prog.rows;
    std::vector<Int> hist(size_t(rows) * width, kUndef);
    std::vector<size_t> rowAt(hist.size() / width); // [back] -> offset.

    for (Int g = 0; g < prog.cycles; g++) {
        for (Int b = 0; b < rows; b++) {
            const Int r = (g - b) % rows;
            rowAt[size_t(b)] = size_t(r < 0 ? r + rows : r) * width;
        }
        Int *now = &hist[rowAt[0]];
        for (size_t i = 0; i < prog.steps.size(); i++) {
            const Step &s = prog.steps[i];
            const Pin *pins = prog.pins.data() + s.in;
            auto in = [&](int k) {
                return hist[rowAt[size_t(pins[k].back)] +
                            size_t(pins[k].src)];
            };
            const Int tin = g - s.latency; // Inputs sampled then.
            if (tin < 0 && s.kind != Kind::Const) {
                now[i] = kUndef;
                continue;
            }
            Int out = kUndef;
            switch (s.kind) {
              case Kind::Const:
                out = s.value;
                break;
              case Kind::Idle:
                break;
              case Kind::Counter:
                out = tin;
                break;
              case Kind::Copy:
                out = in(0);
                break;
              case Kind::AddrGen: {
                Int local = in(0);
                if (local == kUndef || !s.valid || local < 0 ||
                    local >= time_steps) {
                    out = kInvalidAddr;
                    break;
                }
                // addr = coef . mixed-radix digits of local + bias.
                out = s.value;
                for (int d = s.digits - 1; d >= 0; d--) {
                    out += s.coef[d] * (local % s.radix[d]);
                    local /= s.radix[d];
                }
                if (local != 0)
                    panic("mixedRadixDigits: scalar out of range");
                break;
              }
              case Kind::Valid: {
                Int local = in(0);
                if (local == kUndef || local < 0 || local >= time_steps) {
                    out = 0;
                    break;
                }
                if (!s.dt) {
                    out = 1; // No FIFO in this config: always valid.
                    break;
                }
                // FIFO data valid iff t - dt is digit-wise in range.
                out = 1;
                for (int d = s.digits - 1; d >= 0; d--) {
                    const Int late = local % s.radix[d] - s.dt[d];
                    if (late < 0 || late >= s.radix[d])
                        out = 0;
                    local /= s.radix[d];
                }
                if (local != 0)
                    panic("mixedRadixDigits: scalar out of range");
                break;
              }
              case Kind::MemRead: {
                const Int addr = in(0);
                if (addr == kUndef || addr == kInvalidAddr)
                    break;
                if (addr < 0 || addr >= s.memSize)
                    outOfRange(dag, s, addr);
                out = s.mem[addr];
                stats.reads++;
                break;
              }
              case Kind::MemWrite: {
                // Side effect at cycle g; no output.
                const Int data = in(0), addr = in(1);
                if (addr == kUndef || addr == kInvalidAddr ||
                    data == kUndef)
                    break;
                if (addr < 0 || addr >= s.memSize)
                    outOfRange(dag, s, addr);
                Int &m = s.mem[addr];
                if (s.accumulate && s.maxAccum)
                    m = std::max(m, data);
                else if (s.accumulate)
                    m += data;
                else
                    m = data;
                stats.writes++;
                break;
              }
              case Kind::Mul: {
                const Int a = in(0), b = in(1);
                out = (a == kUndef || b == kUndef) ? kUndef : a * b;
                break;
              }
              case Kind::Add: {
                const Int a = in(0), b = in(1);
                out = (a == kUndef || b == kUndef) ? kUndef : a + b;
                break;
              }
              case Kind::Shl: {
                const Int a = in(0), b = in(1);
                // Scale by 2^shift with a multiply: the shifted value
                // can be negative, and shifting it left is UB even
                // though the hardware shifter's two's-complement
                // result is exactly this product.
                out = (a == kUndef || b == kUndef)
                          ? kUndef
                          : a * (Int(1) << (b & 0x3));
                break;
              }
              case Kind::Max: {
                const Int a = in(0), b = in(1);
                out = (a == kUndef || b == kUndef) ? kUndef
                                                   : std::max(a, b);
                break;
              }
              case Kind::DynMux:
                out = in(0) == 1 ? in(1) : in(2);
                break;
              case Kind::Reduce: {
                // Sum over physical pins mapped for this config.
                Int acc = 0;
                bool any = false, undef = false;
                for (int k = 0; k < s.nin; k++) {
                    const Int val = in(k);
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
            }
            now[i] = out;
        }
    }
    return stats;
}

bool
verifyAgainstReference(const CodegenResult &gen, const Adg &adg, int cfg,
                       unsigned seed, InterpStats *stats)
{
    const Workload &w = *adg.configs.at(size_t(cfg)).workload;
    TensorSet ref = makeInputs(w, seed);
    TensorSet hw = makeInputs(w, seed);
    runReference(w, ref);
    InterpStats st = runOnHardware(gen, adg, cfg, hw);
    if (stats)
        *stats = st;
    return ref[w.outputTensor()] == hw[w.outputTensor()];
}

} // namespace lego
