/**
 * @file
 * Unit tests for the LP suite: dense simplex, min-cost flow, the
 * difference-constraint LP (delay matching core), and the 0-1 ILP.
 *
 * The property sweeps cross-check MinCostFlow and DiffConstraintLp
 * against a test-only reference solver (successive shortest paths,
 * one path per Dijkstra) on the shapes delay matching and
 * rewireBroadcasts produce, and against the dense simplex on small
 * instances. The LP has many optimal duals; the reference pins the
 * one MinCostFlow must return, so every slack must match exactly. The
 * same holds at design scale: the baseline delay-matching LP of each
 * Fig. 10 design.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <limits>
#include <queue>
#include <random>

#include "kernels.hh"
#include "lego.hh"
#include "lp/diffcon.hh"
#include "lp/ilp.hh"
#include "lp/netflow.hh"
#include "lp/simplex.hh"

namespace lego
{
namespace
{

/**
 * Test-only reference min-cost flow: successive shortest paths that
 * push one path per Dijkstra, with MinCostFlow's Bellman-Ford start
 * (all nodes at distance 0) and capped potential update
 * pi[v] += min(dist[v], dist[dst]). Same interface as MinCostFlow.
 */
class ReferenceSsp
{
  public:
    explicit ReferenceSsp(int num_nodes)
        : n_(num_nodes + 2), graph_(size_t(n_)), supply_(size_t(n_), 0),
          pi_(size_t(n_), 0)
    {
    }

    int
    addArc(int u, int v, Int cap, Int cost)
    {
        arcRef_.emplace_back(u, int(graph_[size_t(u)].size()));
        addInternal(u, v, cap, cost);
        return int(arcRef_.size()) - 1;
    }

    void setSupply(int node, Int supply) { supply_[size_t(node)] = supply; }

    bool
    solve()
    {
        const int src = n_ - 2, dst = n_ - 1;
        Int total = 0, demand = 0;
        for (int v = 0; v < n_ - 2; v++) {
            if (supply_[size_t(v)] > 0) {
                addInternal(src, v, supply_[size_t(v)], 0);
                total += supply_[size_t(v)];
            } else if (supply_[size_t(v)] < 0) {
                addInternal(v, dst, -supply_[size_t(v)], 0);
                demand -= supply_[size_t(v)];
            }
        }
        if (demand != total)
            return false;
        bellmanFordInit();
        Int shipped = 0;
        std::vector<int> prevNode, prevEdge;
        while (shipped < total) {
            if (!dijkstra(src, dst, prevNode, prevEdge))
                return false;
            Int push = total - shipped;
            for (int v = dst; v != src; v = prevNode[size_t(v)])
                push = std::min(push, edgeInto(v, prevNode, prevEdge).cap);
            for (int v = dst; v != src; v = prevNode[size_t(v)]) {
                Edge &e = edgeInto(v, prevNode, prevEdge);
                e.cap -= push;
                graph_[size_t(v)][size_t(e.rev)].cap += push;
                totalCost_ += push * e.cost;
            }
            shipped += push;
        }
        return true;
    }

    Int totalCost() const { return totalCost_; }

    Int
    flowOn(int arc_id) const
    {
        auto [u, idx] = arcRef_[size_t(arc_id)];
        const Edge &e = graph_[size_t(u)][size_t(idx)];
        return graph_[size_t(e.to)][size_t(e.rev)].cap;
    }

    Int potential(int v) const { return pi_[size_t(v)]; }

  private:
    static constexpr Int kInf = std::numeric_limits<Int>::max() / 4;

    struct Edge
    {
        int to;
        Int cap, cost;
        int rev;
    };

    void
    addInternal(int u, int v, Int cap, Int cost)
    {
        graph_[size_t(u)].push_back(
            {v, cap, cost, int(graph_[size_t(v)].size())});
        graph_[size_t(v)].push_back(
            {u, 0, -cost, int(graph_[size_t(u)].size()) - 1});
    }

    Edge &
    edgeInto(int v, const std::vector<int> &prevNode,
             const std::vector<int> &prevEdge)
    {
        return graph_[size_t(prevNode[size_t(v)])]
                     [size_t(prevEdge[size_t(v)])];
    }

    void
    bellmanFordInit()
    {
        std::vector<Int> dist(size_t(n_), 0);
        std::vector<char> inq(size_t(n_), 1);
        std::deque<int> q;
        for (int v = 0; v < n_; v++)
            q.push_back(v);
        while (!q.empty()) {
            int u = q.front();
            q.pop_front();
            inq[size_t(u)] = 0;
            for (const Edge &e : graph_[size_t(u)]) {
                if (e.cap <= 0 ||
                    dist[size_t(u)] + e.cost >= dist[size_t(e.to)])
                    continue;
                dist[size_t(e.to)] = dist[size_t(u)] + e.cost;
                if (!inq[size_t(e.to)]) {
                    inq[size_t(e.to)] = 1;
                    q.push_back(e.to);
                }
            }
        }
        pi_ = dist;
    }

    bool
    dijkstra(int src, int dst, std::vector<int> &prevNode,
             std::vector<int> &prevEdge)
    {
        std::vector<Int> dist(size_t(n_), kInf);
        prevNode.assign(size_t(n_), -1);
        prevEdge.assign(size_t(n_), -1);
        using Item = std::pair<Int, int>;
        std::priority_queue<Item, std::vector<Item>, std::greater<Item>>
            pq;
        dist[size_t(src)] = 0;
        pq.push({0, src});
        while (!pq.empty()) {
            auto [d, u] = pq.top();
            pq.pop();
            if (d > dist[size_t(u)])
                continue;
            for (size_t i = 0; i < graph_[size_t(u)].size(); i++) {
                const Edge &e = graph_[size_t(u)][i];
                if (e.cap <= 0)
                    continue;
                Int nd = d + e.cost + pi_[size_t(u)] - pi_[size_t(e.to)];
                if (nd < dist[size_t(e.to)]) {
                    dist[size_t(e.to)] = nd;
                    prevNode[size_t(e.to)] = u;
                    prevEdge[size_t(e.to)] = int(i);
                    pq.push({nd, e.to});
                }
            }
        }
        if (dist[size_t(dst)] >= kInf)
            return false;
        for (int v = 0; v < n_; v++)
            pi_[size_t(v)] += std::min(dist[size_t(v)], dist[size_t(dst)]);
        return true;
    }

    int n_;
    std::vector<std::vector<Edge>> graph_;
    std::vector<std::pair<int, int>> arcRef_;
    std::vector<Int> supply_;
    std::vector<Int> pi_;
    Int totalCost_ = 0;
};

/** One difference constraint D_v - D_u >= l with weight w. */
struct Con
{
    int u, v;
    Int l, w;
};

/**
 * Load the dual of a difference-constraint LP into a flow solver,
 * exactly as DiffConstraintLp::solve builds it: one arc u -> v per
 * constraint with cost -l and capacity 1 + sum of weights, supply
 * -(weights in - weights out) per node. Returns the arc capacity.
 */
template <class Flow>
Int
loadDual(Flow &f, int n, const std::vector<Con> &cons)
{
    std::vector<Int> g(size_t(n), 0);
    Int cap = 1;
    for (const Con &c : cons) {
        g[size_t(c.v)] += c.w;
        g[size_t(c.u)] -= c.w;
        cap += c.w;
    }
    for (const Con &c : cons)
        f.addArc(c.u, c.v, cap, -c.l);
    for (int v = 0; v < n; v++)
        f.setSupply(v, -g[size_t(v)]);
    return cap;
}

TEST(Simplex, BasicMaximizationAsMin)
{
    // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6  => x=4, y=0, z=12.
    LinearProgram lp(2);
    lp.setObjective(0, -3);
    lp.setObjective(1, -2);
    lp.addRow({1, 1}, RowSense::LE, 4);
    lp.addRow({1, 3}, RowSense::LE, 6);
    ASSERT_EQ(lp.solve(), LpStatus::Optimal);
    EXPECT_NEAR(lp.objective(), -12.0, 1e-6);
    EXPECT_NEAR(lp.value(0), 4.0, 1e-6);
    EXPECT_NEAR(lp.value(1), 0.0, 1e-6);
}

TEST(Simplex, Equalities)
{
    // min x + y s.t. x + 2y = 4, x >= 1 (as -x <= -1).
    LinearProgram lp(2);
    lp.setObjective(0, 1);
    lp.setObjective(1, 1);
    lp.addRow({1, 2}, RowSense::EQ, 4);
    lp.addRow({1, 0}, RowSense::GE, 1);
    ASSERT_EQ(lp.solve(), LpStatus::Optimal);
    EXPECT_NEAR(lp.objective(), 2.5, 1e-6); // x=1, y=1.5.
}

TEST(Simplex, Infeasible)
{
    LinearProgram lp(1);
    lp.addRow({1}, RowSense::GE, 2);
    lp.addRow({1}, RowSense::LE, 1);
    EXPECT_EQ(lp.solve(), LpStatus::Infeasible);
}

TEST(Simplex, RedundantEqualities)
{
    // The second row is twice the first, so phase 1 leaves one
    // artificial basic on an all-zero row. min x s.t. x + y = 2.
    LinearProgram lp(2);
    lp.setObjective(0, 1);
    lp.addRow({1, 1}, RowSense::EQ, 2);
    lp.addRow({2, 2}, RowSense::EQ, 4);
    ASSERT_EQ(lp.solve(), LpStatus::Optimal);
    EXPECT_NEAR(lp.objective(), 0.0, 1e-9);
    EXPECT_NEAR(lp.value(1), 2.0, 1e-9);
}

TEST(Simplex, Unbounded)
{
    LinearProgram lp(1);
    lp.setObjective(0, -1);
    lp.addRow({-1}, RowSense::LE, 0);
    EXPECT_EQ(lp.solve(), LpStatus::Unbounded);
}

TEST(MinCostFlow, SimpleTransshipment)
{
    // 0 -> 1 -> 2 with supplies 0:+2, 2:-2; costs 1 and 2.
    MinCostFlow mcf(3);
    int a01 = mcf.addArc(0, 1, 10, 1);
    int a12 = mcf.addArc(1, 2, 10, 2);
    mcf.setSupply(0, 2);
    mcf.setSupply(2, -2);
    ASSERT_TRUE(mcf.solve());
    EXPECT_EQ(mcf.totalCost(), 2 * 3);
    EXPECT_EQ(mcf.flowOn(a01), 2);
    EXPECT_EQ(mcf.flowOn(a12), 2);
}

TEST(MinCostFlow, PicksCheaperPath)
{
    MinCostFlow mcf(4);
    int cheap1 = mcf.addArc(0, 1, 5, 1);
    int cheap2 = mcf.addArc(1, 3, 5, 1);
    int costly = mcf.addArc(0, 3, 10, 10);
    mcf.setSupply(0, 7);
    mcf.setSupply(3, -7);
    ASSERT_TRUE(mcf.solve());
    EXPECT_EQ(mcf.flowOn(cheap1), 5);
    EXPECT_EQ(mcf.flowOn(cheap2), 5);
    EXPECT_EQ(mcf.flowOn(costly), 2);
    EXPECT_EQ(mcf.totalCost(), 5 * 2 + 2 * 10);
}

TEST(MinCostFlow, NegativeCosts)
{
    MinCostFlow mcf(3);
    mcf.addArc(0, 1, 4, -5);
    mcf.addArc(1, 2, 4, 2);
    mcf.setSupply(0, 3);
    mcf.setSupply(2, -3);
    ASSERT_TRUE(mcf.solve());
    EXPECT_EQ(mcf.totalCost(), 3 * (-5 + 2));
}

TEST(MinCostFlow, Infeasible)
{
    MinCostFlow mcf(2); // No arc between them.
    mcf.setSupply(0, 1);
    mcf.setSupply(1, -1);
    EXPECT_FALSE(mcf.solve());
}

TEST(DiffCon, ChainPrefersRegisterBeforeBroadcastWeights)
{
    // Classic delay-matching shape: u feeds v and w; v -> t, w -> t.
    // Latencies 1 everywhere; wide edge (weight 8) u->v, narrow edges
    // elsewhere. The solver must place slack on cheap edges.
    DiffConstraintLp lp(4);
    // D_v - D_u >= 1 (weight 8), D_w - D_u >= 3 (weight 1),
    // D_t - D_v >= 1 (weight 1), D_t - D_w >= 1 (weight 1).
    lp.addConstraint(0, 1, 1, 8);
    lp.addConstraint(0, 2, 3, 1);
    lp.addConstraint(1, 3, 1, 1);
    lp.addConstraint(2, 3, 1, 1);
    ASSERT_TRUE(lp.solve());
    // Optimal: D_u=0, D_v=1 or 3... The wide edge should carry zero
    // slack: D_v - D_u == 1.
    EXPECT_EQ(lp.value(1) - lp.value(0), 1);
    // All constraints hold.
    EXPECT_GE(lp.value(2) - lp.value(0), 3);
    EXPECT_GE(lp.value(3) - lp.value(1), 1);
    EXPECT_GE(lp.value(3) - lp.value(2), 1);
    // Total = w*slack: slack on u->v must be 0, on the two joins the
    // path imbalance (3+1 vs 1+1 = 2) costs 2 on the v->t edge.
    EXPECT_EQ(lp.objective(), 2);
}

TEST(DiffCon, SlackQuery)
{
    DiffConstraintLp lp(2);
    int c = lp.addConstraint(0, 1, 5, 1);
    ASSERT_TRUE(lp.solve());
    EXPECT_EQ(lp.slack(c), 0);
    EXPECT_EQ(lp.value(1) - lp.value(0), 5);
}

TEST(DiffCon, ValueBeforeSolvePanics)
{
    DiffConstraintLp lp(2);
    lp.addConstraint(0, 1, 1, 1);
    EXPECT_THROW(lp.value(0), PanicError);
}

TEST(DiffCon, SlackBeforeSolvePanics)
{
    DiffConstraintLp lp(2);
    int c = lp.addConstraint(0, 1, 1, 1);
    EXPECT_THROW(lp.slack(c), PanicError);
}

TEST(DiffCon, ObjectiveBeforeSolvePanics)
{
    DiffConstraintLp lp(2);
    lp.addConstraint(0, 1, 1, 1);
    EXPECT_THROW(lp.objective(), PanicError);
}

TEST(MinCostFlow, SecondSolvePanics)
{
    MinCostFlow mcf(2);
    mcf.addArc(0, 1, 3, 1);
    mcf.setSupply(0, 2);
    mcf.setSupply(1, -2);
    ASSERT_TRUE(mcf.solve());
    EXPECT_THROW(mcf.solve(), PanicError);
}

/** min cost.x over flows x within capacities meeting the supplies. */
double
simplexFlowCost(int n, const std::vector<std::array<Int, 4>> &arcs,
                const std::vector<Int> &supply)
{
    // arcs[a] = {u, v, cap, cost}.
    LinearProgram lp(int(arcs.size()));
    for (size_t a = 0; a < arcs.size(); a++) {
        lp.setObjective(int(a), double(arcs[a][3]));
        lp.addRowSparse({{int(a), 1.0}}, RowSense::LE, double(arcs[a][2]));
    }
    for (int v = 0; v < n; v++) {
        std::vector<std::pair<int, double>> terms;
        for (size_t a = 0; a < arcs.size(); a++) {
            if (arcs[a][0] == v)
                terms.push_back({int(a), 1.0});
            if (arcs[a][1] == v)
                terms.push_back({int(a), -1.0});
        }
        lp.addRowSparse(terms, RowSense::EQ, double(supply[size_t(v)]));
    }
    EXPECT_EQ(lp.solve(), LpStatus::Optimal);
    return lp.objective();
}

TEST(MinCostFlow, BindingCapacitiesMatchSimplex)
{
    // Six units 0 -> 4. The cheap routes saturate in cost order:
    // 0-1-4 (cost 2, cap 2), 0-2-1-4 (cost 3, the 1->4 leftover of
    // 1), 0-2-4 (cost 4, cap 2), then 0-3-4 (cost 6) for the last.
    const std::vector<std::array<Int, 4>> arcs = {
        {0, 1, 2, 1}, {1, 4, 3, 1}, {0, 2, 4, 2}, {2, 4, 2, 2},
        {2, 1, 2, 0}, {0, 3, 10, 5}, {3, 4, 10, 1}};
    const std::vector<Int> supply = {6, 0, 0, 0, -6};
    MinCostFlow mcf(5);
    for (const auto &a : arcs)
        mcf.addArc(int(a[0]), int(a[1]), a[2], a[3]);
    for (int v = 0; v < 5; v++)
        mcf.setSupply(v, supply[size_t(v)]);
    ASSERT_TRUE(mcf.solve());
    EXPECT_EQ(mcf.totalCost(), 2 * 2 + 1 * 3 + 2 * 4 + 1 * 6);
    EXPECT_EQ(mcf.flowOn(1), 3); // 1 -> 4 saturated.
    EXPECT_EQ(mcf.flowOn(3), 2); // 2 -> 4 saturated.
    EXPECT_EQ(mcf.flowOn(5), 1);
    EXPECT_NEAR(double(mcf.totalCost()), simplexFlowCost(5, arcs, supply),
                1e-6);
}

TEST(MinCostFlow, InfeasibleByCapacity)
{
    MinCostFlow mcf(3);
    mcf.addArc(0, 1, 2, 1);
    mcf.addArc(1, 2, 1, 1);
    mcf.setSupply(0, 2);
    mcf.setSupply(2, -2);
    EXPECT_FALSE(mcf.solve());
}

/**
 * Every arc satisfies complementary slackness at the returned
 * potentials: an arc with residual capacity has reduced cost >= 0,
 * an arc carrying flow has reduced cost <= 0 (its reverse residual).
 */
void
expectOptimalDual(const MinCostFlow &f,
                  const std::vector<std::array<Int, 4>> &arcs,
                  const std::string &what)
{
    for (size_t a = 0; a < arcs.size(); a++) {
        const int u = int(arcs[a][0]), v = int(arcs[a][1]);
        const Int flow = f.flowOn(int(a));
        const Int rc = arcs[a][3] + f.potential(u) - f.potential(v);
        ASSERT_GE(flow, 0) << what << " arc " << a;
        ASSERT_LE(flow, arcs[a][2]) << what << " arc " << a;
        if (flow < arcs[a][2]) {
            EXPECT_GE(rc, 0) << what << " arc " << a;
        }
        if (flow > 0) {
            EXPECT_LE(rc, 0) << what << " arc " << a;
        }
    }
}

/**
 * Capacitated min-cost flow on a random n-node DAG with costs drawn
 * from [minCost, maxCost] (possibly negative); supplies come from a random
 * in-capacity flow, so the instance is feasible and capacities bind.
 * The flow must match the reference solver's cost and potentials and
 * the dense simplex's cost.
 */
void
checkRandomFlow(unsigned seed, int n, Int minCost, Int maxCost)
{
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> node(0, n - 1);
    std::uniform_int_distribution<Int> capD(1, 4), costD(minCost, maxCost);
    std::vector<std::array<Int, 4>> arcs;
    std::vector<Int> supply(size_t(n), 0);
    for (int trial = 0; trial < 3 * n; trial++) {
        int u = node(rng), v = node(rng);
        if (u == v)
            continue;
        if (u > v)
            std::swap(u, v);
        const Int cap = capD(rng);
        const Int x = std::uniform_int_distribution<Int>(0, cap)(rng);
        supply[size_t(u)] += x;
        supply[size_t(v)] -= x;
        arcs.push_back({u, v, cap, costD(rng)});
    }

    MinCostFlow mcf(n);
    ReferenceSsp ref(n);
    for (const auto &a : arcs) {
        mcf.addArc(int(a[0]), int(a[1]), a[2], a[3]);
        ref.addArc(int(a[0]), int(a[1]), a[2], a[3]);
    }
    for (int v = 0; v < n; v++) {
        mcf.setSupply(v, supply[size_t(v)]);
        ref.setSupply(v, supply[size_t(v)]);
    }
    ASSERT_TRUE(mcf.solve());
    ASSERT_TRUE(ref.solve());
    EXPECT_EQ(mcf.totalCost(), ref.totalCost());
    for (int v = 0; v < n; v++)
        EXPECT_EQ(mcf.potential(v), ref.potential(v)) << "node " << v;
    expectOptimalDual(mcf, arcs, "mcf");
    if (!arcs.empty()) {
        const double lp = simplexFlowCost(n, arcs, supply);
        EXPECT_NEAR(double(mcf.totalCost()), lp,
                    std::max(1e-6, 1e-12 * std::abs(lp)));
    }
}

class MinCostFlowRandom : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MinCostFlowRandom, MatchesReferenceAndSimplex)
{
    checkRandomFlow(GetParam(), 4 + int(GetParam() % 6), -3, 9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinCostFlowRandom,
                         ::testing::Range(0u, 60u));

TEST(MinCostFlow, WideCostsMatchReferenceAndSimplex)
{
    // Costs up to 1e12 put Dijkstra's distances beyond 2^32, so its
    // queue keys differ from each other in high bits as well as low.
    for (unsigned seed = 0; seed < 12; seed++)
        checkRandomFlow(seed, 20, -300'000'000'000, 1'000'000'000'000);
}

/** Difference-constraint instance shapes that codegen produces. */
enum class Shape
{
    Chain,  //!< A pipeline chain plus skip edges.
    Star,   //!< One hub, spokes of different depths, one join.
    FanIn,  //!< Layered DAG with local reconvergent fan-in.
    Rewire, //!< FanIn plus rewireBroadcasts' virtual max-nodes.
};

struct Instance
{
    int n = 0;
    std::vector<Con> cons;
};

Instance
makeInstance(Shape shape, int n, std::mt19937 &rng)
{
    auto pick = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    const Int widths[] = {0, 1, 4, 8, 16, 32};
    auto width = [&] { return widths[pick(0, 5)]; };
    // Codegen's lower bound on an edge is its head's latency.
    std::vector<Int> lat(size_t(n), 0);
    for (Int &l : lat)
        l = pick(0, 4);
    Instance in;
    in.n = n;
    auto edge = [&](int u, int v) {
        in.cons.push_back({u, v, lat[size_t(v)], width()});
    };

    switch (shape) {
    case Shape::Chain:
        for (int v = 1; v < n; v++)
            edge(v - 1, v);
        for (int k = 0; k < n / 3; k++) {
            int u = pick(0, n - 2), v = pick(u + 1, n - 1);
            in.cons.push_back({u, v, Int(pick(0, 3 * (v - u))), width()});
        }
        break;
    case Shape::Star: {
        // Hub 0, join n-1, spokes of 1..6 interior nodes.
        int next = 1;
        while (next < n - 1) {
            int prev = 0;
            for (int len = pick(1, 6); len > 0 && next < n - 1; len--) {
                edge(prev, next);
                prev = next++;
            }
            edge(prev, n - 1);
        }
        edge(0, n - 1);
        break;
    }
    case Shape::FanIn:
    case Shape::Rewire:
        // Some sources; every other node draws 1-3 distinct preds
        // from the previous eight nodes.
        for (int v = 1; v < n; v++) {
            if (pick(0, 9) == 0)
                continue;
            std::vector<int> preds;
            for (int k = pick(1, 3); k > 0; k--) {
                int u = pick(std::max(0, v - 8), v - 1);
                if (std::find(preds.begin(), preds.end(), u) == preds.end())
                    preds.push_back(u);
            }
            for (int u : preds)
                edge(u, v);
        }
        break;
    }
    if (shape != Shape::Rewire)
        return in;

    // rewireBroadcasts stage 1: each node with >= 2 out-edges is a
    // star; its edges drop to weight 0 and a virtual max-node m gets
    // D_m - D_to >= -lat(to) (weight 0) per edge, plus D_m - D_src >= 0
    // weighted by the widest edge.
    const size_t dagCons = in.cons.size();
    for (int s = 0; s < n; s++) {
        std::vector<size_t> outs;
        for (size_t k = 0; k < dagCons; k++)
            if (in.cons[k].u == s)
                outs.push_back(k);
        if (outs.size() < 2)
            continue;
        const int m = in.n++;
        Int w = 0;
        for (size_t k : outs) {
            Con &c = in.cons[k];
            w = std::max(w, c.w);
            c.w = 0;
            in.cons.push_back({c.v, m, -lat[size_t(c.v)], 0});
        }
        in.cons.push_back({s, m, 0, w});
    }
    return in;
}

/**
 * Property sweep of DiffConstraintLp over shapes and sizes (6 to 300
 * DAG nodes): slacks equal the reference solver's exactly, every
 * constraint holds, the flow's duals are optimal, and small instances
 * match the dense simplex's objective.
 */
class DiffConRandom : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DiffConRandom, MatchesReferenceAndSimplex)
{
    const unsigned seed = GetParam();
    const Shape shape = Shape(seed % 4);
    const int sizes[] = {6, 12, 40, 150, 300};
    std::mt19937 rng(seed);
    const Instance in = makeInstance(shape, sizes[(seed / 4) % 5], rng);
    if (in.cons.empty())
        return;
    const int n = in.n;

    DiffConstraintLp dlp(n);
    for (const Con &c : in.cons)
        dlp.addConstraint(c.u, c.v, c.l, c.w);
    ASSERT_TRUE(dlp.solve());

    // The same dual through MinCostFlow and the reference solver.
    MinCostFlow mcf(n);
    ReferenceSsp ref(n);
    const Int cap = loadDual(mcf, n, in.cons);
    loadDual(ref, n, in.cons);
    ASSERT_TRUE(mcf.solve());
    ASSERT_TRUE(ref.solve());
    EXPECT_EQ(mcf.totalCost(), ref.totalCost());
    std::vector<std::array<Int, 4>> arcs;
    for (const Con &c : in.cons)
        arcs.push_back({c.u, c.v, cap, -c.l});
    expectOptimalDual(mcf, arcs, "seed " + std::to_string(seed));

    // Primal D = -potential, so slack = pi_u - pi_v - l.
    Int refObjective = 0;
    for (size_t k = 0; k < in.cons.size(); k++) {
        const Con &c = in.cons[k];
        const Int refSlack =
            ref.potential(c.u) - ref.potential(c.v) - c.l;
        ASSERT_EQ(dlp.slack(int(k)), refSlack)
            << "seed " << seed << " constraint " << k;
        ASSERT_GE(dlp.slack(int(k)), 0);
        refObjective += c.w * refSlack;
    }
    EXPECT_EQ(dlp.objective(), refObjective);

    if (n > 16)
        return;
    // Dense LP over x_v >= 0 standing for D_v:
    // min sum w (x_v - x_u - l).
    LinearProgram lp(n);
    std::vector<double> obj(size_t(n), 0.0);
    double constant = 0.0;
    for (const Con &c : in.cons) {
        obj[size_t(c.v)] += double(c.w);
        obj[size_t(c.u)] -= double(c.w);
        constant += double(c.w) * double(c.l);
        lp.addRowSparse({{c.v, 1.0}, {c.u, -1.0}}, RowSense::GE,
                        double(c.l));
    }
    for (int j = 0; j < n; j++)
        lp.setObjective(j, obj[size_t(j)]);
    ASSERT_EQ(lp.solve(), LpStatus::Optimal);
    EXPECT_NEAR(lp.objective() - constant, double(dlp.objective()), 1e-6)
        << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffConRandom,
                         ::testing::Range(0u, 200u));

/**
 * The baseline delay-matching LP of every Fig. 10 design, built as
 * runDelayMatching builds it after codegen, bit-width inference and
 * logic-depth pipelining: MinCostFlow returns the reference dual at
 * every node.
 */
TEST(DiffConDesigns, Fig10BaselineDualMatchesReference)
{
    for (NamedDesign &d : fig10Designs()) {
        CodegenResult gen = codegen(generateArchitecture(d.configs));
        Dag &dag = gen.dag;
        inferBitwidths(dag);
        assignPipelineLatencies(dag);
        std::vector<Con> cons;
        for (int e = 0; e < dag.numEdges(); e++) {
            const DagEdge &edge = dag.edge(e);
            if (!edge.dead && dag.node(edge.from).op != PrimOp::Const)
                cons.push_back({edge.from, edge.to,
                                dag.node(edge.to).latency, edge.width});
        }
        const int n = dag.numNodes();
        MinCostFlow mcf(n);
        ReferenceSsp ref(n);
        loadDual(mcf, n, cons);
        loadDual(ref, n, cons);
        ASSERT_TRUE(mcf.solve()) << d.name;
        ASSERT_TRUE(ref.solve()) << d.name;
        EXPECT_GT(mcf.stats().paths, 0) << d.name;
        EXPECT_EQ(mcf.totalCost(), ref.totalCost()) << d.name;
        for (int v = 0; v < n; v++)
            ASSERT_EQ(mcf.potential(v), ref.potential(v))
                << d.name << " node " << v;
    }
}

TEST(BoolIlp, SetCover)
{
    // Cover {a,b,c} with sets {a,b}, {b,c}, {a,c}, each cost 1;
    // optimum = 2 sets.
    BoolIlp ilp(3);
    for (int j = 0; j < 3; j++)
        ilp.setObjective(j, 1.0);
    ilp.addRowSparse({{0, 1.0}, {2, 1.0}}, RowSense::GE, 1.0); // a.
    ilp.addRowSparse({{0, 1.0}, {1, 1.0}}, RowSense::GE, 1.0); // b.
    ilp.addRowSparse({{1, 1.0}, {2, 1.0}}, RowSense::GE, 1.0); // c.
    auto x = ilp.solve();
    ASSERT_TRUE(x.has_value());
    EXPECT_NEAR(ilp.objective(), 2.0, 1e-6);
}

TEST(BoolIlp, Infeasible)
{
    BoolIlp ilp(2);
    ilp.addRowSparse({{0, 1.0}, {1, 1.0}}, RowSense::GE, 3.0);
    EXPECT_FALSE(ilp.solve().has_value());
}

TEST(BoolIlp, AssignmentShape)
{
    // 2 items, 2 slots; forbid item0->slot0. min total assignments
    // with every item assigned once.
    // Vars: x(i,j) = i*2+j.
    BoolIlp ilp(4);
    for (int j = 0; j < 4; j++)
        ilp.setObjective(j, 1.0);
    ilp.addRowSparse({{0, 1.0}}, RowSense::EQ, 0.0);
    ilp.addRowSparse({{0, 1.0}, {1, 1.0}}, RowSense::EQ, 1.0);
    ilp.addRowSparse({{2, 1.0}, {3, 1.0}}, RowSense::EQ, 1.0);
    // Slot capacity 1.
    ilp.addRowSparse({{0, 1.0}, {2, 1.0}}, RowSense::LE, 1.0);
    ilp.addRowSparse({{1, 1.0}, {3, 1.0}}, RowSense::LE, 1.0);
    auto x = ilp.solve();
    ASSERT_TRUE(x.has_value());
    EXPECT_EQ((*x)[1], 1); // item0 -> slot1.
    EXPECT_EQ((*x)[2], 1); // item1 -> slot0.
}

} // namespace
} // namespace lego
