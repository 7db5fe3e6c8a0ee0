/**
 * @file
 * Detailed Architecture Graph (DAG) — the primitive-level IR of the
 * LEGO back end (paper Section V, Fig. 7).
 *
 * The DAG opens the FU black boxes of the ADG: nodes are primitives,
 * edges carry bit-widths, per-config activity, programmable delays
 * (FIFO depths) and the pipeline registers inserted by delay
 * matching. All back-end optimization passes transform this graph,
 * and both the Verilog emitter and the cycle-accurate interpreter
 * consume it.
 */

#ifndef LEGO_BACKEND_DAG_HH
#define LEGO_BACKEND_DAG_HH

#include <string>
#include <vector>

#include "backend/primitives.hh"
#include "core/matrix.hh"

namespace lego
{

/** Affine address expression: addr = coefT . t_digits + bias. */
struct AffineAddr
{
    IntVec coefT;
    Int bias = 0;
    bool valid = false; //!< Whether this config uses the generator.
};

/** One primitive instance. */
struct DagNode
{
    PrimOp op = PrimOp::Const;
    std::string name;   //!< Unique, stable; used in Verilog.
    int fu = -1;        //!< Owning FU (spatial position), -1 = global.
    int width = 16;     //!< Output bit-width (bit-width inference).
    Int latency = 0;    //!< Internal latency L_v.

    // --- payload (op-specific) -------------------------------------
    Int constValue = 0;            //!< Const.
    std::vector<IntVec> radix;     //!< Counter: per-config loop radix.
    std::vector<AffineAddr> addr;  //!< AddrGen: per-config expression.
    std::vector<int> muxSel;       //!< Mux: per-config pin; -2 dynamic.
    int memPort = -1;              //!< Mem*: operand port id (-1=out).
    bool accumulate = false;       //!< MemWrite: read-modify-write.
    bool maxAccum = false;         //!< MemWrite: max instead of add.
    int reducePins = 0;            //!< Reduce: physical pin count.
    /** Reduce: per-config, per physical pin, source edge or -1. */
    std::vector<std::vector<int>> pinMap;
    /** Mux dynamic mode: valid-select pin index (-1 = none). */
    int selPin = -1;
    /** Mux dynamic mode: per-config (pin when valid, pin when not). */
    std::vector<std::pair<int, int>> dynPins;
    /** Valid: per-config digit-wise FIFO offset (empty = always 1). */
    std::vector<IntVec> validDt;
    bool dead = false; //!< Removed by a transformation pass.
};

/** One wire/connection between primitives. */
struct DagEdge
{
    int from = -1;
    int to = -1;
    int toPin = 0;    //!< Input pin index on the destination.
    int width = 16;
    Int regs = 0;     //!< Pipeline registers (EL of Eq. 10).
    /** Per-config programmed delay (FIFO depth); empty = all zero. */
    std::vector<Int> cfgDelay;
    /** Per-config liveness; empty = active everywhere. */
    std::vector<bool> active;
    bool gated = false; //!< Clock-gated when inactive (power pass).
    bool dead = false;  //!< Removed by a transformation pass.

    Int delayFor(int cfg) const
    {
        Int d = regs;
        if (!cfgDelay.empty())
            d += cfgDelay.at(size_t(cfg));
        return d;
    }

    bool activeFor(int cfg) const
    {
        return active.empty() || active.at(size_t(cfg));
    }
};

/** The graph. */
class Dag
{
  public:
    explicit Dag(int num_configs) : numConfigs_(num_configs) {}

    int numConfigs() const { return numConfigs_; }

    int addNode(DagNode n);
    int addEdge(DagEdge e);

    DagNode &node(int id) { return nodes_.at(size_t(id)); }
    const DagNode &node(int id) const { return nodes_.at(size_t(id)); }
    DagEdge &edge(int id) { return edges_.at(size_t(id)); }
    const DagEdge &edge(int id) const { return edges_.at(size_t(id)); }

    int numNodes() const { return int(nodes_.size()); }
    int numEdges() const { return int(edges_.size()); }

    const std::vector<int> &inEdges(int node) const;
    const std::vector<int> &outEdges(int node) const;

    /** Input edge feeding pin `pin` of `node`, or -1. */
    int inEdgeAt(int node, int pin) const;

    /** Topological order over all edges; panics on a cycle. */
    std::vector<int> topoOrder() const;

    /**
     * Topological order over the subgraph active in one config.
     * Fused designs may pair opposite-direction edges that are never
     * active together; each config's subgraph must still be acyclic
     * ("only one path is activated at every cycle ... forming an
     * acyclic forest", Section II).
     */
    std::vector<int> topoOrder(int cfg) const;

    /** Structural sanity checks (unique pins, per-config acyclicity). */
    void validate() const;

    /** Total register bits: edge regs * width (the LP objective). */
    Int registerBits() const;

    /** Nodes matching an op kind (dead nodes excluded). */
    std::vector<int> nodesOf(PrimOp op) const;

    /** Mark an edge dead (skipped by every consumer of the graph). */
    void killEdge(int id);

    /** Mark a node and all its incident edges dead. */
    void killNode(int id);

    /** Move an edge's source to another node. */
    void retargetEdgeSource(int id, int new_from);

  private:
    int numConfigs_;
    std::vector<DagNode> nodes_;
    std::vector<DagEdge> edges_;
    std::vector<std::vector<int>> in_, out_;
};

} // namespace lego

#endif // LEGO_BACKEND_DAG_HH
