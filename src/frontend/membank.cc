#include "frontend/membank.hh"

#include <algorithm>

namespace lego
{

Int
TensorBanking::bankOf(const IntVec &d) const
{
    if (d.size() != banks.size())
        panic("TensorBanking::bankOf: rank mismatch");
    Int b = 0;
    for (size_t i = 0; i < d.size(); i++) {
        Int q = d[i] / gcds[i];
        b = b * banks[i] + (q % banks[i]);
    }
    return b;
}

TensorBanking
analyzeBanking(const Workload &w, int tensor, const DataflowMapping &map,
               const std::vector<int> &dataNodes)
{
    const DataMapping &dm = w.mappings.at(size_t(tensor));
    const int rank = dm.m.rows();

    TensorBanking tb;
    tb.banks.assign(size_t(rank), 1);
    tb.gcds.assign(size_t(rank), 1);
    if (dataNodes.size() <= 1)
        return tb;

    // Tensor indexes of all data nodes at t = 0 (deltas are
    // time-invariant for affine relations).
    IntVec t0(size_t(map.tDims()), 0);
    std::vector<IntVec> idx;
    for (int fu : dataNodes)
        idx.push_back(tensorIndexAt(w, tensor, map, t0, map.fuCoord(fu)));

    for (int r = 0; r < rank; r++) {
        Int maxd = 0, g = 0;
        for (size_t a = 0; a < idx.size(); a++) {
            for (size_t b = a + 1; b < idx.size(); b++) {
                Int d = idx[a][size_t(r)] - idx[b][size_t(r)];
                if (d < 0)
                    d = -d;
                maxd = std::max(maxd, d);
                g = gcdInt(g, d);
            }
        }
        if (g == 0) {
            // All deltas zero in this dim: one bank suffices.
            tb.banks[size_t(r)] = 1;
            tb.gcds[size_t(r)] = 1;
        } else {
            tb.banks[size_t(r)] = maxd / g + 1;
            tb.gcds[size_t(r)] = g;
        }
    }
    return tb;
}

bool
bankingConflictFree(const Workload &w, int tensor,
                    const DataflowMapping &map,
                    const std::vector<int> &dataNodes,
                    const TensorBanking &banking)
{
    IntVec t(size_t(map.tDims()), 0);
    bool more = map.tDims() > 0;
    do {
        std::vector<Int> seen;
        for (int fu : dataNodes) {
            IntVec d = tensorIndexAt(w, tensor, map, t, map.fuCoord(fu));
            Int b = banking.bankOf(d);
            for (Int other : seen)
                if (other == b)
                    return false;
            seen.push_back(b);
        }
        // Advance t.
        int pos = int(t.size()) - 1;
        while (pos >= 0) {
            if (++t[size_t(pos)] < map.rT[size_t(pos)])
                break;
            t[size_t(pos)] = 0;
            pos--;
        }
        more = pos >= 0;
    } while (more);
    return true;
}

} // namespace lego
