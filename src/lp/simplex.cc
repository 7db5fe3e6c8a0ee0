#include "lp/simplex.hh"

#include <cmath>
#include <limits>

namespace lego
{

namespace
{

constexpr double kEps = 1e-9;

/**
 * Standard-form tableau simplex with Bland's anti-cycling rule.
 * Rows are equalities with slack/artificial columns already added;
 * phase 1 minimizes the artificial sum, phase 2 the true objective.
 */
class Tableau
{
  public:
    // a: m x n coefficient matrix (equalities), b >= 0 ensured by
    // caller, costs c of length n.
    Tableau(std::vector<std::vector<double>> a, std::vector<double> b,
            int num_real)
        : a_(std::move(a)), b_(std::move(b)), numReal_(num_real)
    {
        m_ = int(a_.size());
        n_ = m_ ? int(a_[0].size()) : 0;
        basis_.assign(m_, -1);
    }

    /** Run phase 1 with artificial variables; true if feasible. */
    bool
    phase1()
    {
        // Append one artificial column per row.
        for (int i = 0; i < m_; i++) {
            for (int r = 0; r < m_; r++)
                a_[r].push_back(r == i ? 1.0 : 0.0);
            basis_[i] = n_ + i;
        }
        int total = n_ + m_;
        std::vector<double> cost(total, 0.0);
        for (int j = n_; j < total; j++)
            cost[j] = 1.0;
        double z = iterate(cost);
        if (z > kEps)
            return false;
        // Pivot artificials out of the basis where possible.
        for (int i = 0; i < m_; i++) {
            if (basis_[i] < n_)
                continue;
            int enter = -1;
            for (int j = 0; j < n_; j++) {
                if (std::fabs(a_[i][j]) > kEps) {
                    enter = j;
                    break;
                }
            }
            if (enter >= 0)
                pivot(i, enter);
        }
        // A row whose artificial is still basic is zero on every real
        // column (a redundant equality): drop it, since phase 2 has no
        // cost for artificial columns. Then drop artificial columns.
        for (int i = m_ - 1; i >= 0; i--) {
            if (basis_[i] >= n_) {
                a_.erase(a_.begin() + i);
                b_.erase(b_.begin() + i);
                basis_.erase(basis_.begin() + i);
            }
        }
        m_ = int(a_.size());
        for (int r = 0; r < m_; r++)
            a_[r].resize(size_t(n_));
        return true;
    }

    /** Phase 2 with the true costs; returns status. */
    LpStatus
    phase2(const std::vector<double> &c)
    {
        std::vector<double> cost(n_, 0.0);
        for (int j = 0; j < numReal_; j++)
            cost[j] = c[size_t(j)];
        double z = iterate(cost);
        if (std::isinf(z))
            return LpStatus::Unbounded;
        obj_ = z;
        return LpStatus::Optimal;
    }

    double objective() const { return obj_; }

    std::vector<double>
    solution() const
    {
        std::vector<double> x(size_t(numReal_), 0.0);
        for (int i = 0; i < m_; i++)
            if (basis_[i] < numReal_)
                x[size_t(basis_[i])] = b_[i];
        return x;
    }

  private:
    void
    pivot(int row, int col)
    {
        double p = a_[row][col];
        for (double &v : a_[row])
            v /= p;
        b_[row] /= p;
        for (int r = 0; r < m_; r++) {
            if (r == row)
                continue;
            double f = a_[r][col];
            if (std::fabs(f) < kEps)
                continue;
            for (size_t j = 0; j < a_[r].size(); j++)
                a_[r][j] -= f * a_[row][j];
            b_[r] -= f * b_[row];
        }
        basis_[row] = col;
    }

    /**
     * Primal simplex iterations minimizing `cost` from the current
     * basis. Returns the optimum, or +inf when unbounded.
     */
    double
    iterate(const std::vector<double> &cost)
    {
        const int width = int(cost.size());
        while (true) {
            // Reduced costs: r_j = c_j - c_B . B^-1 A_j. The tableau
            // keeps B^-1 A in a_, so compute directly.
            int enter = -1;
            for (int j = 0; j < width; j++) {
                double r = cost[size_t(j)];
                for (int i = 0; i < m_; i++)
                    r -= cost[size_t(basis_[i])] * a_[i][j];
                if (r < -kEps) {
                    enter = j; // Bland: first improving column.
                    break;
                }
            }
            if (enter < 0)
                break;
            // Ratio test; Bland ties by smallest basis variable.
            int leave = -1;
            double best = std::numeric_limits<double>::infinity();
            for (int i = 0; i < m_; i++) {
                if (a_[i][enter] > kEps) {
                    double ratio = b_[i] / a_[i][enter];
                    if (ratio < best - kEps ||
                        (ratio < best + kEps &&
                         (leave < 0 || basis_[i] < basis_[leave]))) {
                        best = ratio;
                        leave = i;
                    }
                }
            }
            if (leave < 0)
                return std::numeric_limits<double>::infinity();
            pivot(leave, enter);
        }
        double z = 0.0;
        for (int i = 0; i < m_; i++)
            z += cost[size_t(basis_[i])] * b_[i];
        return z;
    }

    std::vector<std::vector<double>> a_;
    std::vector<double> b_;
    int numReal_;
    int m_ = 0, n_ = 0;
    std::vector<int> basis_;
    double obj_ = 0.0;
};

} // namespace

LinearProgram::LinearProgram(int n)
    : n_(n), c_(size_t(n), 0.0)
{
    if (n <= 0)
        panic("LinearProgram: need at least one variable");
}

void
LinearProgram::setObjective(int j, double c)
{
    c_.at(size_t(j)) = c;
}

void
LinearProgram::addRow(const std::vector<double> &a, RowSense sense, double b)
{
    if (int(a.size()) != n_)
        panic("LinearProgram::addRow: width mismatch");
    rows_.push_back(a);
    senses_.push_back(sense);
    rhs_.push_back(b);
}

void
LinearProgram::addRowSparse(
    const std::vector<std::pair<int, double>> &terms, RowSense sense,
    double b)
{
    std::vector<double> a(size_t(n_), 0.0);
    for (auto [j, v] : terms)
        a.at(size_t(j)) += v;
    addRow(a, sense, b);
}

LpStatus
LinearProgram::solve()
{
    const int m = int(rows_.size());
    // Count slack columns (one per inequality).
    int slacks = 0;
    for (RowSense s : senses_)
        if (s != RowSense::EQ)
            slacks++;

    std::vector<std::vector<double>> a(
        size_t(m), std::vector<double>(size_t(n_ + slacks), 0.0));
    std::vector<double> b(size_t(m), 0.0);

    int slack = n_;
    for (int i = 0; i < m; i++) {
        for (int j = 0; j < n_; j++)
            a[i][size_t(j)] = rows_[i][size_t(j)];
        b[size_t(i)] = rhs_[size_t(i)];
        if (senses_[size_t(i)] == RowSense::LE)
            a[i][size_t(slack++)] = 1.0;
        else if (senses_[size_t(i)] == RowSense::GE)
            a[i][size_t(slack++)] = -1.0;
        // Normalize to b >= 0 for phase 1.
        if (b[size_t(i)] < 0) {
            for (double &v : a[i])
                v = -v;
            b[size_t(i)] = -b[size_t(i)];
        }
    }

    Tableau t(std::move(a), std::move(b), n_);
    if (!t.phase1())
        return LpStatus::Infeasible;
    LpStatus st = t.phase2(c_);
    if (st == LpStatus::Optimal) {
        obj_ = t.objective();
        x_ = t.solution();
    }
    return st;
}

} // namespace lego
