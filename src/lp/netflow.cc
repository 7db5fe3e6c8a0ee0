#include "lp/netflow.hh"

#include <deque>
#include <limits>
#include <queue>

namespace lego
{

namespace
{
constexpr Int kInf = std::numeric_limits<Int>::max() / 4;
} // namespace

MinCostFlow::MinCostFlow(int num_nodes)
    : n_(num_nodes + 2), // +2: super source / super sink.
      graph_(size_t(n_)),
      supply_(size_t(n_), 0),
      pi_(size_t(n_), 0)
{
}

void
MinCostFlow::addInternal(int u, int v, Int cap, Int cost)
{
    graph_[size_t(u)].push_back({v, cap, cost, int(graph_[size_t(v)].size())});
    graph_[size_t(v)].push_back(
        {u, 0, -cost, int(graph_[size_t(u)].size()) - 1});
}

int
MinCostFlow::addArc(int u, int v, Int cap, Int cost)
{
    if (u < 0 || u >= n_ - 2 || v < 0 || v >= n_ - 2)
        panic("MinCostFlow::addArc: node out of range");
    arcRef_.emplace_back(u, int(graph_[size_t(u)].size()));
    addInternal(u, v, cap, cost);
    return int(arcRef_.size()) - 1;
}

void
MinCostFlow::setSupply(int node, Int supply)
{
    supply_.at(size_t(node)) = supply;
}

void
MinCostFlow::addSupply(int node, Int delta)
{
    supply_.at(size_t(node)) += delta;
}

Int
MinCostFlow::flowOn(int arc_id) const
{
    auto [u, idx] = arcRef_.at(size_t(arc_id));
    const Edge &e = graph_[size_t(u)][size_t(idx)];
    // Flow pushed equals the reverse edge's acquired capacity.
    return graph_[size_t(e.to)][size_t(e.rev)].cap;
}

bool
MinCostFlow::bellmanFordInit(int src)
{
    // Virtual-source Bellman-Ford: start all nodes at 0 so that the
    // resulting potentials are feasible on every component (needed for
    // reading back dual values on flow-free components). src itself
    // participates like any node.
    (void)src;
    std::vector<Int> dist(size_t(n_), 0);
    std::vector<char> inq(size_t(n_), 1);
    std::vector<int> relaxed(size_t(n_), 0);
    std::deque<int> q;
    for (int v = 0; v < n_; v++)
        q.push_back(v);
    while (!q.empty()) {
        int u = q.front();
        q.pop_front();
        inq[size_t(u)] = 0;
        for (const Edge &e : graph_[size_t(u)]) {
            if (e.cap <= 0)
                continue;
            Int nd = dist[size_t(u)] + e.cost;
            if (nd < dist[size_t(e.to)]) {
                dist[size_t(e.to)] = nd;
                if (++relaxed[size_t(e.to)] > n_ + 1)
                    return false; // Negative cycle (LEGO bug).
                if (!inq[size_t(e.to)]) {
                    inq[size_t(e.to)] = 1;
                    q.push_back(e.to);
                }
            }
        }
    }
    for (int v = 0; v < n_; v++)
        pi_[size_t(v)] = dist[size_t(v)];
    return true;
}

bool
MinCostFlow::dijkstra(int src, int dst)
{
    std::vector<Int> dist(size_t(n_), kInf);
    using Item = std::pair<Int, int>;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
    dist[size_t(src)] = 0;
    pq.push({0, src});
    while (!pq.empty()) {
        auto [d, u] = pq.top();
        pq.pop();
        if (d > dist[size_t(u)])
            continue;
        for (const Edge &e : graph_[size_t(u)]) {
            if (e.cap <= 0)
                continue;
            Int rc = e.cost + pi_[size_t(u)] - pi_[size_t(e.to)];
            if (rc < 0)
                panic("MinCostFlow: negative reduced cost");
            Int nd = d + rc;
            if (nd < dist[size_t(e.to)]) {
                dist[size_t(e.to)] = nd;
                pq.push({nd, e.to});
            }
        }
    }
    if (dist[size_t(dst)] >= kInf)
        return false;
    // Update potentials, capping by dist[dst] to keep feasibility on
    // unreached nodes.
    for (int v = 0; v < n_; v++)
        pi_[size_t(v)] += std::min(dist[size_t(v)], dist[size_t(dst)]);
    return true;
}

bool
MinCostFlow::admissible(int u, const Edge &e) const
{
    return e.cap > 0 && e.cost + pi_[size_t(u)] - pi_[size_t(e.to)] == 0;
}

bool
MinCostFlow::levelGraph(int src, int dst)
{
    level_.assign(size_t(n_), -1);
    queue_.clear();
    level_[size_t(src)] = 0;
    queue_.push_back(src);
    for (size_t head = 0; head < queue_.size(); head++) {
        const int u = queue_[head];
        for (const Edge &e : graph_[size_t(u)]) {
            if (level_[size_t(e.to)] < 0 && admissible(u, e)) {
                level_[size_t(e.to)] = level_[size_t(u)] + 1;
                queue_.push_back(e.to);
            }
        }
    }
    return level_[size_t(dst)] >= 0;
}

Int
MinCostFlow::blockingFlow(int src, int dst)
{
    // Iterative DFS along level-increasing admissible arcs. arc_[u] is
    // u's current arc: arcs before it are saturated or lead to dead
    // ends in this level graph, so every arc is skipped at most once.
    arc_.assign(size_t(n_), 0);
    path_.clear();
    Int pushed = 0;
    int u = src;
    for (;;) {
        if (u == dst) {
            Int push = kInf;
            for (int w : path_)
                push = std::min(push,
                                graph_[size_t(w)][arc_[size_t(w)]].cap);
            size_t cut = path_.size();
            for (size_t i = 0; i < path_.size(); i++) {
                const int w = path_[i];
                Edge &e = graph_[size_t(w)][arc_[size_t(w)]];
                e.cap -= push;
                graph_[size_t(e.to)][size_t(e.rev)].cap += push;
                totalCost_ += push * e.cost;
                if (e.cap == 0 && cut == path_.size())
                    cut = i;
            }
            pushed += push;
            // Resume from the tail of the first saturated arc.
            u = path_[cut];
            path_.resize(cut);
            continue;
        }
        const std::vector<Edge> &adj = graph_[size_t(u)];
        size_t &i = arc_[size_t(u)];
        while (i < adj.size() &&
               !(level_[size_t(adj[i].to)] == level_[size_t(u)] + 1 &&
                 admissible(u, adj[i])))
            i++;
        if (i < adj.size()) {
            path_.push_back(u);
            u = adj[i].to;
        } else if (u == src) {
            return pushed;
        } else {
            // Dead end: retreat and skip the arc that led here.
            u = path_.back();
            path_.pop_back();
            arc_[size_t(u)]++;
        }
    }
}

bool
MinCostFlow::solve()
{
    if (solved_)
        panic("MinCostFlow::solve called twice");
    solved_ = true;
    const int src = n_ - 2;
    const int dst = n_ - 1;
    Int total = 0;
    for (int v = 0; v < n_ - 2; v++) {
        if (supply_[size_t(v)] > 0) {
            addInternal(src, v, supply_[size_t(v)], 0);
            total += supply_[size_t(v)];
        } else if (supply_[size_t(v)] < 0) {
            addInternal(v, dst, -supply_[size_t(v)], 0);
        }
    }
    Int demand = 0;
    for (int v = 0; v < n_ - 2; v++)
        if (supply_[size_t(v)] < 0)
            demand -= supply_[size_t(v)];
    if (demand != total)
        return false;

    if (!bellmanFordInit(src))
        panic("MinCostFlow: negative cycle in constraint graph");

    // One Dijkstra per distance level; between them, ship everything
    // the admissible arcs can carry. The source's arcs carry exactly
    // `total`, so no phase overshoots.
    Int shipped = 0;
    while (shipped < total) {
        if (!dijkstra(src, dst))
            return false;
        while (shipped < total && levelGraph(src, dst))
            shipped += blockingFlow(src, dst);
    }
    return true;
}

} // namespace lego
