#include "frontend/chains.hh"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <set>

#include "frontend/arbor.hh"

namespace lego
{

const PlannedEdge::Use *
PlannedEdge::useFor(int config) const
{
    for (const Use &u : uses)
        if (u.config == config)
            return &u;
    return nullptr;
}

std::vector<int>
PortPlan::allDataNodes() const
{
    std::set<int> s;
    for (const auto &dn : dataNodes)
        s.insert(dn.begin(), dn.end());
    return std::vector<int>(s.begin(), s.end());
}

namespace
{

/** A chain: one coset of the direct-reuse lattice in one config. */
struct Chain
{
    int config;
    std::vector<int> members;
    std::vector<int> rootCandidates;
};

/** Per-config analysis context. */
struct ConfigCtx
{
    const Workload *w = nullptr;
    const DataflowMapping *map = nullptr;
    int tensor = -1;
    std::vector<ReuseSolution> direct;
    std::vector<ReuseSolution> delay;
    std::set<int> delayFed; //!< FUs receiving a delay solution.
};

/** Key identifying the direct-reuse coset of an FU. */
IntVec
cosetKey(const ConfigCtx &ctx, int fu)
{
    const IntMat &md = ctx.w->mappings[size_t(ctx.tensor)].m;
    IntVec s = ctx.map->fuCoord(fu);
    return (md * ctx.map->mSI) * s;
}

/**
 * Directed adjacency step: can data flow u -> v directly in this
 * config? For output ports `flow` is member -> parent (toward the
 * committing root), so the caller passes the flow direction already.
 */
bool
hasDirectEdge(const ConfigCtx &ctx, int u, int v, Int *tbias)
{
    IntVec du = ctx.map->fuCoord(u);
    IntVec dv = ctx.map->fuCoord(v);
    IntVec ds = subVec(dv, du);
    for (const ReuseSolution &sol : ctx.direct) {
        if (sol.ds == ds) {
            if (tbias)
                *tbias = sol.tbiasDelta;
            return true;
        }
    }
    return false;
}

} // namespace

PortPlan
planPort(const std::vector<FusedConfig> &configs,
         const std::vector<int> &tensorOf, bool is_output,
         const FusionOptions &opt)
{
    const int nc = int(configs.size());
    if (int(tensorOf.size()) != nc)
        panic("planPort: tensorOf size mismatch");

    PortPlan plan;
    plan.isOutput = is_output;
    plan.links.assign(size_t(nc), {});
    plan.dataNodes.assign(size_t(nc), {});

    // Validate the shared array shape.
    const IntVec &shape = configs.at(0).map.rS;
    for (const auto &c : configs)
        if (c.map.rS != shape)
            fatal("planPort: fused dataflows must share the FU array "
                  "shape");
    const int num_fus = int(configs[0].map.numFUs());

    // Edge pool keyed by (from, to).
    std::map<std::pair<int, int>, int> pool;
    auto edgeIdx = [&](int from, int to) {
        auto key = std::make_pair(from, to);
        auto it = pool.find(key);
        if (it != pool.end())
            return it->second;
        PlannedEdge e;
        e.from = from;
        e.to = to;
        plan.edges.push_back(e);
        pool[key] = int(plan.edges.size()) - 1;
        return int(plan.edges.size()) - 1;
    };

    // ----------------------------------------------------------------
    // Simply-merged baseline: per-config minimum-spanning selection.
    // ----------------------------------------------------------------
    if (!opt.heuristicPlanning || nc == 1) {
        for (int c = 0; c < nc; c++) {
            if (tensorOf[size_t(c)] < 0)
                continue;
            SpanningResult sr =
                buildSpanning(*configs[size_t(c)].workload,
                              tensorOf[size_t(c)], configs[size_t(c)].map,
                              opt.spanning);
            plan.links[size_t(c)] = sr.links;
            plan.dataNodes[size_t(c)] = sr.dataNodes;
            for (int fu = 0; fu < num_fus; fu++) {
                const FuLink &l = sr.links[size_t(fu)];
                if (l.kind == FuLink::Kind::Memory)
                    continue;
                int from = is_output ? fu : l.peer;
                int to = is_output ? l.peer : fu;
                PlannedEdge &e = plan.edges[size_t(edgeIdx(from, to))];
                ConnKind kind = l.kind == FuLink::Kind::Direct
                                    ? ConnKind::Direct
                                    : ConnKind::Delay;
                e.uses.push_back({c, kind, l.depth});
            }
        }
        return plan;
    }

    // ----------------------------------------------------------------
    // Heuristic planning (Fig. 5).
    // ----------------------------------------------------------------
    std::vector<ConfigCtx> ctx{size_t(nc)};
    std::vector<Int> indeg(size_t(num_fus), 0);
    for (int c = 0; c < nc; c++) {
        if (tensorOf[size_t(c)] < 0)
            continue;
        ConfigCtx &cc = ctx[size_t(c)];
        cc.w = configs[size_t(c)].workload;
        cc.map = &configs[size_t(c)].map;
        cc.tensor = tensorOf[size_t(c)];
        auto sols = findReuseSolutions(*cc.w, cc.tensor, *cc.map,
                                       opt.spanning.search);
        for (auto &s : sols) {
            if (s.kind == ConnKind::Direct)
                cc.direct.push_back(s);
            else
                cc.delay.push_back(s);
        }
        // Possible input direct interconnections per FU, and the
        // delay-fed set (root candidates).
        for (int fu = 0; fu < num_fus; fu++) {
            IntVec s = cc.map->fuCoord(fu);
            for (const auto &sol : cc.direct) {
                // Receiver of a direct edge: fu = src + ds.
                IntVec src = subVec(s, sol.ds);
                bool ok = true;
                for (size_t d = 0; d < src.size(); d++)
                    if (src[d] < 0 || src[d] >= cc.map->rS[d])
                        ok = false;
                if (ok)
                    indeg[size_t(fu)]++;
            }
            for (const auto &sol : cc.delay) {
                IntVec src = subVec(s, sol.ds);
                bool ok = true;
                for (size_t d = 0; d < src.size(); d++)
                    if (src[d] < 0 || src[d] >= cc.map->rS[d])
                        ok = false;
                if (ok)
                    cc.delayFed.insert(fu);
            }
        }
        plan.links[size_t(c)].assign(size_t(num_fus), FuLink{});
    }

    // Build chains: connected components of window-limited direct
    // adjacency inside each direct-reuse coset.
    std::vector<Chain> chains;
    std::vector<std::vector<int>> chainOf(
        size_t(nc), std::vector<int>(size_t(num_fus), -1));
    for (int c = 0; c < nc; c++) {
        if (ctx[size_t(c)].tensor < 0)
            continue;
        const ConfigCtx &cc = ctx[size_t(c)];
        std::map<IntVec, std::vector<int>> cosets;
        for (int fu = 0; fu < num_fus; fu++)
            cosets[cosetKey(cc, fu)].push_back(fu);
        for (auto &[key, members] : cosets) {
            // Split the coset into components of undirected adjacency.
            std::set<int> remaining(members.begin(), members.end());
            while (!remaining.empty()) {
                int seed = *remaining.begin();
                std::vector<int> comp{seed};
                remaining.erase(seed);
                for (size_t qi = 0; qi < comp.size(); qi++) {
                    for (int v : std::vector<int>(remaining.begin(),
                                                  remaining.end())) {
                        if (hasDirectEdge(cc, comp[qi], v, nullptr) ||
                            hasDirectEdge(cc, v, comp[qi], nullptr)) {
                            comp.push_back(v);
                            remaining.erase(v);
                        }
                    }
                }
                Chain ch;
                ch.config = c;
                ch.members = comp;
                for (int fu : comp)
                    if (cc.delayFed.count(fu))
                        ch.rootCandidates.push_back(fu);
                if (ch.rootCandidates.empty())
                    ch.rootCandidates = comp;
                int id = int(chains.size());
                for (int fu : comp)
                    chainOf[size_t(c)][size_t(fu)] = id;
                chains.push_back(std::move(ch));
            }
        }
    }

    // Shortest chains first (the paper's worked example seeds data
    // nodes with the short chains, then reuses them in long ones).
    std::vector<int> order(chains.size());
    for (size_t i = 0; i < order.size(); i++)
        order[i] = int(i);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return chains[size_t(a)].members.size() <
               chains[size_t(b)].members.size();
    });

    std::set<int> dataNodeSet; // FUs holding a data node so far.
    std::vector<int> chainRoot(chains.size(), -1);

    for (int ci : order) {
        Chain &ch = chains[size_t(ci)];
        const ConfigCtx &cc = ctx[size_t(ch.config)];
        std::set<int> memberSet(ch.members.begin(), ch.members.end());

        // Candidate ordering: fewest possible input direct
        // interconnections; prefer existing data nodes; stable by id.
        std::vector<int> cands = ch.rootCandidates;
        std::stable_sort(cands.begin(), cands.end(), [&](int a, int b) {
            auto ka = std::make_tuple(indeg[size_t(a)],
                                      dataNodeSet.count(a) ? 0 : 1, a);
            auto kb = std::make_tuple(indeg[size_t(b)],
                                      dataNodeSet.count(b) ? 0 : 1, b);
            return ka < kb;
        });

        // 0/1-BFS from a candidate root: traversing an already-built
        // edge costs 0, creating a new edge costs 1. Flow direction
        // is root -> members for inputs, member -> root for outputs.
        auto grow = [&](int root, std::vector<int> *parent) {
            std::vector<Int> dist(size_t(num_fus),
                                  std::numeric_limits<Int>::max());
            parent->assign(size_t(num_fus), -1);
            std::deque<int> dq;
            dist[size_t(root)] = 0;
            dq.push_back(root);
            while (!dq.empty()) {
                int u = dq.front();
                dq.pop_front();
                for (int v : ch.members) {
                    if (v == u || !memberSet.count(v))
                        continue;
                    int from = is_output ? v : u;
                    int to = is_output ? u : v;
                    Int tb = 0;
                    if (!hasDirectEdge(cc, from, to, &tb))
                        continue;
                    Int w = pool.count({from, to}) ? 0 : 1;
                    if (dist[size_t(u)] + w < dist[size_t(v)]) {
                        dist[size_t(v)] = dist[size_t(u)] + w;
                        (*parent)[size_t(v)] = u;
                        if (w == 0)
                            dq.push_front(v);
                        else
                            dq.push_back(v);
                    }
                }
            }
            int covered = 0;
            for (int v : ch.members)
                if (dist[size_t(v)] != std::numeric_limits<Int>::max())
                    covered++;
            return covered;
        };

        int best_root = -1, best_cov = -1;
        std::vector<int> parent;
        for (int cand : cands) {
            std::vector<int> p;
            int cov = grow(cand, &p);
            if (cov > best_cov) {
                best_cov = cov;
                best_root = cand;
                parent = std::move(p);
            }
            if (cov == int(ch.members.size()))
                break;
        }
        // Fall back to non-candidate members if coverage incomplete.
        if (best_cov < int(ch.members.size())) {
            for (int cand : ch.members) {
                std::vector<int> p;
                int cov = grow(cand, &p);
                if (cov > best_cov) {
                    best_cov = cov;
                    best_root = cand;
                    parent = std::move(p);
                }
                if (cov == int(ch.members.size()))
                    break;
            }
        }
        chainRoot[size_t(ci)] = best_root;

        // Materialize tree edges and links; requeue uncovered members
        // as a fresh chain.
        std::vector<int> uncovered;
        for (int v : ch.members) {
            if (v == best_root)
                continue;
            if (parent[size_t(v)] < 0) {
                uncovered.push_back(v);
                continue;
            }
            int u = parent[size_t(v)];
            int from = is_output ? v : u;
            int to = is_output ? u : v;
            Int tb = 0;
            hasDirectEdge(cc, from, to, &tb);
            PlannedEdge &e = plan.edges[size_t(edgeIdx(from, to))];
            if (!e.useFor(ch.config))
                e.uses.push_back({ch.config, ConnKind::Direct, tb});
            plan.links[size_t(ch.config)][size_t(v)] =
                {FuLink::Kind::Direct, u, -1, tb, {}};
        }
        if (!uncovered.empty()) {
            Chain rest;
            rest.config = ch.config;
            rest.members = uncovered;
            for (int fu : uncovered)
                if (cc.delayFed.count(fu))
                    rest.rootCandidates.push_back(fu);
            if (rest.rootCandidates.empty())
                rest.rootCandidates = uncovered;
            for (int fu : uncovered)
                chainOf[size_t(ch.config)][size_t(fu)] =
                    int(chains.size());
            // Shrink the current chain to the covered set.
            ch.members.erase(
                std::remove_if(ch.members.begin(), ch.members.end(),
                               [&](int v) {
                                   return parent[size_t(v)] < 0 &&
                                          v != best_root;
                               }),
                ch.members.end());
            order.push_back(int(chains.size()));
            chains.push_back(std::move(rest));
        }
        dataNodeSet.insert(best_root); // Provisional (may become
                                       // delay-fed below).
    }

    // ----------------------------------------------------------------
    // Re-establish delay interconnections between chain roots, per
    // config, with a minimum arborescence over chains. Output ports
    // commit at every chain root instead (no cross-chain delay).
    // ----------------------------------------------------------------
    for (int c = 0; c < nc; c++) {
        if (ctx[size_t(c)].tensor < 0)
            continue;
        const ConfigCtx &cc = ctx[size_t(c)];
        std::vector<int> cfg_chains;
        for (size_t ci = 0; ci < chains.size(); ci++)
            if (chains[ci].config == c)
                cfg_chains.push_back(int(ci));

        if (is_output || cc.delay.empty()) {
            for (int ci : cfg_chains) {
                int root = chainRoot[size_t(ci)];
                plan.links[size_t(c)][size_t(root)] = FuLink{};
                plan.dataNodes[size_t(c)].push_back(root);
            }
            std::sort(plan.dataNodes[size_t(c)].begin(),
                      plan.dataNodes[size_t(c)].end());
            continue;
        }

        // Arborescence nodes: chains (local ids) + virtual memory.
        std::map<int, int> localId;
        for (size_t i = 0; i < cfg_chains.size(); i++)
            localId[cfg_chains[i]] = int(i);
        const int vroot = int(cfg_chains.size());
        std::vector<ArborEdge> edges;
        struct Cand
        {
            int fromFu, toRoot, sol;
        };
        std::vector<Cand> cands;
        for (int ci : cfg_chains) {
            edges.push_back({vroot, localId[ci],
                             opt.spanning.memoryEdgeCost,
                             -1 - localId[ci]});
        }
        for (int ci : cfg_chains) {
            for (int u : chains[size_t(ci)].members) {
                IntVec su = cc.map->fuCoord(u);
                for (size_t k = 0; k < cc.delay.size(); k++) {
                    const ReuseSolution &sol = cc.delay[k];
                    IntVec sv = addVec(su, sol.ds);
                    bool ok = true;
                    for (size_t d = 0; d < sv.size(); d++)
                        if (sv[d] < 0 || sv[d] >= cc.map->rS[d])
                            ok = false;
                    if (!ok)
                        continue;
                    int v = int(cc.map->fuIndex(sv));
                    int cj = chainOf[size_t(c)][size_t(v)];
                    if (cj == ci || v != chainRoot[size_t(cj)])
                        continue;
                    edges.push_back({localId[ci], localId[cj],
                                     sol.totalDelay(),
                                     int(cands.size())});
                    cands.push_back({u, v, int(k)});
                }
            }
        }
        auto chosen =
            minArborescence(int(cfg_chains.size()) + 1, vroot, edges);
        if (!chosen)
            panic("planPort: chain unreachable from memory root");
        for (int id : *chosen) {
            if (id < 0) {
                // Memory edge: the chain root is a data node.
                int ci = cfg_chains[size_t(-1 - id)];
                int root = chainRoot[size_t(ci)];
                plan.links[size_t(c)][size_t(root)] = FuLink{};
                plan.dataNodes[size_t(c)].push_back(root);
            } else {
                const Cand &cd = cands[size_t(id)];
                const ReuseSolution &sol = cc.delay[size_t(cd.sol)];
                PlannedEdge &e =
                    plan.edges[size_t(edgeIdx(cd.fromFu, cd.toRoot))];
                if (!e.useFor(c))
                    e.uses.push_back(
                        {c, ConnKind::Delay, sol.totalDelay()});
                plan.links[size_t(c)][size_t(cd.toRoot)] =
                    {FuLink::Kind::Delay, cd.fromFu, -1,
                     sol.totalDelay(), sol.dt};
            }
        }
        std::sort(plan.dataNodes[size_t(c)].begin(),
                  plan.dataNodes[size_t(c)].end());
    }
    return plan;
}

} // namespace lego
