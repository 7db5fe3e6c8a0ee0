#include "frontend/interconnect.hh"

#include "core/lattice.hh"

namespace lego
{

namespace
{

/** Enumerate all non-zero ds with ||ds||_inf <= window. */
std::vector<IntVec>
spatialOffsets(int s_dims, Int window)
{
    std::vector<IntVec> out;
    IntVec ds(size_t(s_dims), -window);
    bool done = false;
    while (!done) {
        if (!isZeroVec(ds))
            out.push_back(ds);
        int pos = 0;
        while (pos < s_dims) {
            if (++ds[size_t(pos)] <= window)
                break;
            ds[size_t(pos)] = -window;
            pos++;
        }
        if (pos == s_dims)
            done = true;
    }
    return out;
}

} // namespace

std::vector<ReuseSolution>
findReuseSolutions(const Workload &w, int tensor,
                   const DataflowMapping &map,
                   const ReuseSearchOptions &opt)
{
    std::vector<ReuseSolution> out;
    const IntMat &md = w.mappings.at(size_t(tensor)).m;
    IntMat md_si = md * map.mSI;
    IntMat md_ti = md * map.mTI;

    for (const IntVec &ds : spatialOffsets(map.sDims(), opt.spatialWindow)) {
        Int tbias = dot(ds, map.cflow);
        if (tbias < 0)
            continue; // Data must flow from past to future (Eq. 6/7).

        IntVec shift = md_si * ds;
        if (isZeroVec(shift)) {
            // Eq. 6: same data at the same local timestamp.
            ReuseSolution sol;
            sol.tensor = tensor;
            sol.kind = ConnKind::Direct;
            sol.ds = ds;
            sol.dt.assign(size_t(map.tDims()), 0);
            sol.scalarDelay = 0;
            sol.tbiasDelta = tbias;
            out.push_back(std::move(sol));
        }

        // Eq. 7: minimal positive-delay temporal compensation.
        LatticeProblem p;
        p.a = md_ti;
        p.rhs = scaleVec(shift, -1);
        p.radix = map.rT;
        p.minScalar = 1;
        p.searchBound = opt.latticeBound;
        if (auto sol = solveBoundedLattice(p)) {
            if (sol->scalar + tbias <= opt.maxDelay) {
                ReuseSolution rs;
                rs.tensor = tensor;
                rs.kind = ConnKind::Delay;
                rs.ds = ds;
                rs.dt = sol->dt;
                rs.scalarDelay = sol->scalar;
                rs.tbiasDelta = tbias;
                out.push_back(std::move(rs));
            }
        }
    }
    return out;
}

} // namespace lego
