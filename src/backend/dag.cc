#include "backend/dag.hh"

#include <algorithm>

namespace lego
{

int
Dag::addNode(DagNode n)
{
    n.latency = primLatency(n.op);
    nodes_.push_back(std::move(n));
    in_.emplace_back();
    out_.emplace_back();
    return int(nodes_.size()) - 1;
}

int
Dag::addEdge(DagEdge e)
{
    if (e.from < 0 || e.from >= numNodes() || e.to < 0 ||
        e.to >= numNodes())
        panic("Dag::addEdge: endpoint out of range");
    edges_.push_back(e);
    int id = int(edges_.size()) - 1;
    out_[size_t(e.from)].push_back(id);
    in_[size_t(e.to)].push_back(id);
    return id;
}

const std::vector<int> &
Dag::inEdges(int node) const
{
    return in_.at(size_t(node));
}

const std::vector<int> &
Dag::outEdges(int node) const
{
    return out_.at(size_t(node));
}

int
Dag::inEdgeAt(int node, int pin) const
{
    for (int e : in_.at(size_t(node)))
        if (edges_[size_t(e)].toPin == pin)
            return e;
    return -1;
}

namespace
{

std::vector<int>
topoImpl(int num_nodes, const std::vector<DagEdge> &edges,
         const std::vector<std::vector<int>> &out, int cfg)
{
    std::vector<int> indeg(size_t(num_nodes), 0);
    auto live = [&](const DagEdge &e) {
        if (e.dead)
            return false;
        return cfg < 0 || e.activeFor(cfg);
    };
    for (const DagEdge &e : edges)
        if (live(e))
            indeg[size_t(e.to)]++;
    std::vector<int> queue;
    for (int v = 0; v < num_nodes; v++)
        if (indeg[size_t(v)] == 0)
            queue.push_back(v);
    std::vector<int> order;
    for (size_t qi = 0; qi < queue.size(); qi++) {
        int u = queue[qi];
        order.push_back(u);
        for (int e : out[size_t(u)]) {
            if (!live(edges[size_t(e)]))
                continue;
            if (--indeg[size_t(edges[size_t(e)].to)] == 0)
                queue.push_back(edges[size_t(e)].to);
        }
    }
    if (int(order.size()) != num_nodes)
        panic("Dag::topoOrder: cycle detected" +
              std::string(cfg >= 0 ? " in config " + std::to_string(cfg)
                                   : ""));
    return order;
}

} // namespace

std::vector<int>
Dag::topoOrder() const
{
    return topoImpl(numNodes(), edges_, out_, -1);
}

std::vector<int>
Dag::topoOrder(int cfg) const
{
    return topoImpl(numNodes(), edges_, out_, cfg);
}

void
Dag::validate() const
{
    // Unique pin per (node, pin).
    for (int v = 0; v < numNodes(); v++) {
        if (nodes_[size_t(v)].dead)
            continue;
        std::vector<int> pins;
        for (int e : in_[size_t(v)]) {
            if (edges_[size_t(e)].dead)
                continue;
            pins.push_back(edges_[size_t(e)].toPin);
        }
        std::sort(pins.begin(), pins.end());
        if (std::adjacent_find(pins.begin(), pins.end()) != pins.end())
            panic("Dag::validate: duplicate input pin on node " +
                  nodes_[size_t(v)].name);
    }
    for (const DagEdge &e : edges_) {
        if (e.dead)
            continue;
        if (e.regs < 0)
            panic("Dag::validate: negative edge registers");
        for (Int d : e.cfgDelay)
            if (d < 0)
                panic("Dag::validate: negative FIFO depth");
    }
    for (int c = 0; c < numConfigs_; c++)
        topoOrder(c); // Panics on per-config cycles.
}

Int
Dag::registerBits() const
{
    Int bits = 0;
    for (const DagEdge &e : edges_) {
        if (e.dead)
            continue;
        // FIFO storage counts with its worst-case programmed depth.
        Int depth = e.regs;
        for (Int d : e.cfgDelay)
            depth = std::max(depth, e.regs + d);
        bits += depth * e.width;
    }
    return bits;
}

void
Dag::killEdge(int id)
{
    edges_.at(size_t(id)).dead = true;
}

void
Dag::killNode(int id)
{
    nodes_.at(size_t(id)).dead = true;
    for (int e : in_.at(size_t(id)))
        edges_[size_t(e)].dead = true;
    for (int e : out_.at(size_t(id)))
        edges_[size_t(e)].dead = true;
}

void
Dag::retargetEdgeSource(int id, int new_from)
{
    DagEdge &e = edges_.at(size_t(id));
    auto &old_out = out_.at(size_t(e.from));
    old_out.erase(std::remove(old_out.begin(), old_out.end(), id),
                  old_out.end());
    e.from = new_from;
    out_.at(size_t(new_from)).push_back(id);
}

std::vector<int>
Dag::nodesOf(PrimOp op) const
{
    std::vector<int> out;
    for (int v = 0; v < numNodes(); v++)
        if (!nodes_[size_t(v)].dead && nodes_[size_t(v)].op == op)
            out.push_back(v);
    return out;
}

} // namespace lego
