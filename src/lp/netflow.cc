#include "lp/netflow.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <limits>

namespace lego
{

namespace
{
constexpr Int kInf = std::numeric_limits<Int>::max() / 4;

/**
 * Monotone priority queue of node ids keyed by an outside distance
 * array: a radix heap over intrusive lists. Bucket 0 holds the keys
 * equal to the last popped key; bucket b >= 1 the keys whose highest
 * bit differing from it is bit b - 1. Keys must never drop below the
 * last popped key, which Dijkstra on non-negative costs guarantees.
 */
class RadixQueue
{
  public:
    explicit RadixQueue(const std::vector<Int> &key)
        : key_(key), next_(key.size()), prev_(key.size()),
          bucket_(key.size(), -1)
    {
        head_.fill(-1);
    }

    /** Queue v, or move it after its key dropped. */
    void
    update(int v)
    {
        if (bucket_[size_t(v)] >= 0)
            unlink(v);
        link(v, bucketFor(key_[size_t(v)]));
    }

    /** Pop a node of least key; -1 when empty. */
    int
    pop()
    {
        if (head_[0] < 0) {
            size_t b = 1;
            while (b < head_.size() && head_[b] < 0)
                b++;
            if (b == head_.size())
                return -1;
            // Its least key becomes the last one; every key in the
            // bucket then lands in a lower bucket.
            last_ = kInf;
            for (int v = head_[b]; v >= 0; v = next_[size_t(v)])
                last_ = std::min(last_, key_[size_t(v)]);
            int v = head_[b];
            head_[b] = -1;
            while (v >= 0) {
                const int nx = next_[size_t(v)];
                link(v, bucketFor(key_[size_t(v)]));
                v = nx;
            }
        }
        const int v = head_[0];
        if (key_[size_t(v)] != last_)
            panic("MinCostFlow: queue popped out of order");
        unlink(v);
        return v;
    }

  private:
    int
    bucketFor(Int k) const
    {
        const auto diff = std::uint64_t(k ^ last_);
        return diff ? 64 - __builtin_clzll(diff) : 0;
    }

    void
    link(int v, int b)
    {
        bucket_[size_t(v)] = b;
        prev_[size_t(v)] = -1;
        next_[size_t(v)] = head_[size_t(b)];
        if (head_[size_t(b)] >= 0)
            prev_[size_t(head_[size_t(b)])] = v;
        head_[size_t(b)] = v;
    }

    void
    unlink(int v)
    {
        const int p = prev_[size_t(v)], nx = next_[size_t(v)];
        if (p >= 0)
            next_[size_t(p)] = nx;
        else
            head_[size_t(bucket_[size_t(v)])] = nx;
        if (nx >= 0)
            prev_[size_t(nx)] = p;
        bucket_[size_t(v)] = -1;
    }

    const std::vector<Int> &key_;
    std::array<int, 65> head_;
    std::vector<int> next_, prev_, bucket_;
    Int last_ = 0;
};

} // namespace

MinCostFlow::MinCostFlow(int num_nodes)
    : n_(num_nodes + 2), // +2: super source / super sink.
      supply_(size_t(n_), 0),
      pi_(size_t(n_), 0)
{
}

int
MinCostFlow::addArc(int u, int v, Int cap, Int cost)
{
    if (u < 0 || u >= n_ - 2 || v < 0 || v >= n_ - 2)
        panic("MinCostFlow::addArc: node out of range");
    arcs_.push_back({u, v, cap, cost});
    return int(arcs_.size()) - 1;
}

void
MinCostFlow::setSupply(int node, Int supply)
{
    supply_.at(size_t(node)) = supply;
}

Int
MinCostFlow::flowOn(int arc_id) const
{
    // Flow pushed equals the reverse slot's acquired capacity.
    return cap_[size_t(rev_[size_t(fwd_.at(size_t(arc_id)))])];
}

void
MinCostFlow::buildGraph()
{
    // Each arc takes the next free slot of its tail (forward) and of
    // its head (reverse), as push_back onto adjacency lists would.
    start_.assign(size_t(n_) + 1, 0);
    for (const Arc &a : arcs_) {
        start_[size_t(a.u) + 1]++;
        start_[size_t(a.v) + 1]++;
    }
    for (int v = 0; v < n_; v++)
        start_[size_t(v) + 1] += start_[size_t(v)];
    const size_t slots = size_t(start_[size_t(n_)]);
    to_.resize(slots);
    rev_.resize(slots);
    cap_.resize(slots);
    cost_.resize(slots);
    fwd_.resize(arcs_.size());
    std::vector<int> next(start_.begin(), start_.end() - 1);
    for (size_t i = 0; i < arcs_.size(); i++) {
        const Arc &a = arcs_[i];
        const int f = next[size_t(a.u)]++;
        const int r = next[size_t(a.v)]++;
        to_[size_t(f)] = a.v;
        rev_[size_t(f)] = r;
        cap_[size_t(f)] = a.cap;
        cost_[size_t(f)] = a.cost;
        to_[size_t(r)] = a.u;
        rev_[size_t(r)] = f;
        cap_[size_t(r)] = 0;
        cost_[size_t(r)] = -a.cost;
        fwd_[i] = f;
    }
    zeroStart_.resize(size_t(n_) + 1);
    zero_.resize(slots);
    level_.assign(size_t(n_), -1);
    arc_.resize(size_t(n_));
}

bool
MinCostFlow::bellmanFordInit()
{
    // Virtual-source Bellman-Ford: start all nodes at 0 so that the
    // resulting potentials are feasible on every component (needed for
    // reading back dual values on flow-free components).
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
        for (int s = start_[size_t(u)]; s < start_[size_t(u) + 1]; s++) {
            if (cap_[size_t(s)] <= 0)
                continue;
            const int v = to_[size_t(s)];
            Int nd = dist[size_t(u)] + cost_[size_t(s)];
            if (nd < dist[size_t(v)]) {
                dist[size_t(v)] = nd;
                if (++relaxed[size_t(v)] > n_ + 1)
                    return false; // Negative cycle (LEGO bug).
                if (!inq[size_t(v)]) {
                    inq[size_t(v)] = 1;
                    q.push_back(v);
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
    stats_.phases++;
    dist_.assign(size_t(n_), kInf);
    RadixQueue q(dist_);
    dist_[size_t(src)] = 0;
    q.update(src);
    int u;
    while ((u = q.pop()) >= 0) {
        stats_.settled++;
        if (u == dst)
            break; // Every unsettled node is at >= dist[dst].
        const Int du = dist_[size_t(u)], pu = pi_[size_t(u)];
        for (int s = start_[size_t(u)]; s < start_[size_t(u) + 1]; s++) {
            if (cap_[size_t(s)] <= 0)
                continue;
            const int v = to_[size_t(s)];
            Int rc = cost_[size_t(s)] + pu - pi_[size_t(v)];
            if (rc < 0)
                panic("MinCostFlow: negative reduced cost");
            Int nd = du + rc;
            if (nd < dist_[size_t(v)]) {
                dist_[size_t(v)] = nd;
                q.update(v);
            }
        }
    }
    const Int sinkDist = dist_[size_t(dst)];
    if (sinkDist >= kInf)
        return false;
    // Update potentials, capping by dist[dst] to keep feasibility on
    // unreached nodes.
    for (int v = 0; v < n_; v++)
        pi_[size_t(v)] += std::min(dist_[size_t(v)], sinkDist);
    listZeroSlots();
    return true;
}

void
MinCostFlow::listZeroSlots()
{
    int k = 0;
    for (int u = 0; u < n_; u++) {
        zeroStart_[size_t(u)] = k;
        const Int pu = pi_[size_t(u)];
        for (int s = start_[size_t(u)]; s < start_[size_t(u) + 1]; s++)
            if (cost_[size_t(s)] + pu - pi_[size_t(to_[size_t(s)])] == 0)
                zero_[size_t(k++)] = s;
    }
    zeroStart_[size_t(n_)] = k;
}

bool
MinCostFlow::levelGraph(int src, int dst)
{
    stats_.rounds++;
    for (int v : queue_)
        level_[size_t(v)] = -1;
    queue_.clear();
    level_[size_t(src)] = 0;
    arc_[size_t(src)] = zeroStart_[size_t(src)];
    queue_.push_back(src);
    for (size_t head = 0; head < queue_.size(); head++) {
        const int u = queue_[head];
        const int begin = zeroStart_[size_t(u)];
        const int end = zeroStart_[size_t(u) + 1];
        for (int k = begin; k < end; k++) {
            const int s = zero_[size_t(k)];
            const int v = to_[size_t(s)];
            if (level_[size_t(v)] < 0 && cap_[size_t(s)] > 0) {
                level_[size_t(v)] = level_[size_t(u)] + 1;
                arc_[size_t(v)] = zeroStart_[size_t(v)];
                queue_.push_back(v);
                if (v == dst) {
                    stats_.scanned += k + 1 - begin;
                    return true; // Every shallower level is complete.
                }
            }
        }
        stats_.scanned += end - begin;
    }
    return false;
}

Int
MinCostFlow::blockingFlow(int src, int dst)
{
    // Iterative DFS along level-increasing admissible arcs. arc_[u] is
    // u's current arc: arcs before it are saturated or lead to dead
    // ends in this level graph, so every arc is skipped at most once.
    auto current = [&](int w) { // w's current arc slot.
        return size_t(zero_[size_t(arc_[size_t(w)])]);
    };
    path_.clear();
    Int pushed = 0;
    int u = src;
    for (;;) {
        if (u == dst) {
            Int push = kInf;
            for (int w : path_)
                push = std::min(push, cap_[current(w)]);
            size_t cut = path_.size();
            for (size_t i = 0; i < path_.size(); i++) {
                const size_t s = current(path_[i]);
                cap_[s] -= push;
                cap_[size_t(rev_[s])] += push;
                totalCost_ += push * cost_[s];
                if (cap_[s] == 0 && cut == path_.size())
                    cut = i;
            }
            pushed += push;
            stats_.paths++;
            // Resume from the tail of the first saturated arc.
            u = path_[cut];
            path_.resize(cut);
            continue;
        }
        const int end = zeroStart_[size_t(u) + 1];
        const int next = level_[size_t(u)] + 1;
        int &i = arc_[size_t(u)];
        while (i < end) {
            const int s = zero_[size_t(i)];
            if (level_[size_t(to_[size_t(s)])] == next && cap_[size_t(s)] > 0)
                break;
            i++;
        }
        if (i < end) {
            path_.push_back(u);
            u = to_[current(u)];
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
    Int total = 0, demand = 0;
    for (int v = 0; v < n_ - 2; v++) {
        if (supply_[size_t(v)] > 0) {
            arcs_.push_back({src, v, supply_[size_t(v)], 0});
            total += supply_[size_t(v)];
        } else if (supply_[size_t(v)] < 0) {
            arcs_.push_back({v, dst, -supply_[size_t(v)], 0});
            demand -= supply_[size_t(v)];
        }
    }
    buildGraph();
    if (demand != total)
        return false;

    if (!bellmanFordInit())
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
