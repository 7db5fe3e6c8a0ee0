#include "core/reference.hh"

#include <algorithm>
#include <string>

namespace lego
{

TensorSet
makeInputs(const Workload &w, unsigned seed)
{
    TensorSet ts;
    for (size_t i = 0; i < w.tensors.size(); i++) {
        TensorData td(w.tensorShape(int(i)));
        if (!w.tensors[i].isOutput)
            td.fillPattern(seed + unsigned(i) * 7919u);
        ts.tensors.push_back(std::move(td));
    }
    return ts;
}

namespace
{

/**
 * The loop body on one point: update the output element `y` from the
 * operands, `operand(k)` giving input k (read only for the inputs the
 * op consumes).
 */
template <typename Operand>
void
body(OpKind op, Int &y, const Operand &operand)
{
    switch (op) {
      case OpKind::Mac:
        y += operand(0) * operand(1);
        break;
      case OpKind::MulMulAdd:
        y += operand(0) * operand(1) * operand(2);
        break;
      case OpKind::MulShiftAdd:
        // Shift amounts are kept small and non-negative by masking.
        // The product may be negative, so scale by 2^shift with a
        // multiply: same two's-complement result as the hardware
        // shifter, without the UB of left-shifting a negative value.
        y += (operand(0) * operand(1)) * (Int(1) << (operand(2) & 0x3));
        break;
      case OpKind::MaxReduce:
        y = std::max(y, operand(0));
        break;
    }
}

/**
 * One tensor operand of the loop body, flattened: its element at
 * iteration point i is data[off + coef . i] (row-major strides folded
 * into the affine mapping).
 */
struct FlatOperand
{
    Int *data = nullptr;
    IntVec coef;
    Int off = 0;
};

/**
 * Flatten tensor `t`'s mapping and prove every index it produces over
 * the iteration box lies inside the tensor's extent: each coordinate
 * is affine, so its extremes sit at the box corners picked by the
 * coefficient signs.
 */
FlatOperand
flatOperand(const Workload &w, TensorSet &ts, int t)
{
    const DataMapping &dm = w.mappings.at(size_t(t));
    TensorData &td = ts[t];
    const IntVec &shape = td.shape();
    const int rank = dm.m.rows();
    const int nd = int(w.iterSizes.size());
    const std::string &name = w.tensors.at(size_t(t)).name;
    if (rank != int(shape.size()) || dm.m.cols() != nd ||
        (!dm.bias.empty() && int(dm.bias.size()) != rank))
        panic("runReference: mapping of " + name +
              " does not match its tensor or the iteration domain");

    FlatOperand op;
    op.data = &td.flat(0);
    op.coef.assign(size_t(nd), 0);
    Int stride = 1;
    for (int r = rank - 1; r >= 0; r--) {
        Int lo = dm.bias.empty() ? 0 : dm.bias[size_t(r)];
        Int hi = lo;
        op.off += lo * stride;
        for (int d = 0; d < nd; d++) {
            const Int c = dm.m.at(r, d);
            const Int reach = c * (w.iterSizes[size_t(d)] - 1);
            (reach < 0 ? lo : hi) += reach;
            op.coef[size_t(d)] += c * stride;
        }
        if (lo < 0 || hi >= shape[size_t(r)])
            panic("runReference: index out of range: " + name +
                  " coordinate " + std::to_string(r) + " spans [" +
                  std::to_string(lo) + ", " + std::to_string(hi) +
                  "], extent " + std::to_string(shape[size_t(r)]));
        stride *= shape[size_t(r)];
    }
    return op;
}

/** Iterate a mixed-radix counter; returns false after the last state. */
bool
advance(IntVec &v, const IntVec &radix)
{
    int pos = int(v.size()) - 1;
    while (pos >= 0) {
        if (++v[pos] < radix[pos])
            return true;
        v[pos] = 0;
        pos--;
    }
    return false;
}

} // namespace

void
applyBody(const Workload &w, TensorSet &ts, const IntVec &iter)
{
    const int out = w.outputTensor();
    std::vector<int> in = w.inputTensors();
    IntVec yidx = w.mappings[out].apply(iter);
    Int &y = ts[out].at(yidx);

    auto operand = [&](int k) {
        int t = in[size_t(k)];
        return ts[t].at(w.mappings[t].apply(iter));
    };
    body(w.op, y, operand);
}

void
runReference(const Workload &w, TensorSet &ts)
{
    const int nd = int(w.iterSizes.size());
    for (Int n : w.iterSizes)
        if (n <= 0)
            panic("runReference: non-positive iteration size");
    const std::vector<int> in = w.inputTensors();
    const int nin = opInputCount(w.op);
    if (int(in.size()) < nin)
        panic("runReference: too few input tensors for the op");

    // ops[0] is the output, ops[1..nin] the inputs in operand order.
    std::vector<FlatOperand> ops;
    ops.push_back(flatOperand(w, ts, w.outputTensor()));
    for (int k = 0; k < nin; k++)
        ops.push_back(flatOperand(w, ts, in[size_t(k)]));
    auto operand = [&](int k) {
        const FlatOperand &o = ops[size_t(k) + 1];
        return o.data[o.off];
    };

    // Same row-major walk as applyBody at every point, with the flat
    // offsets stepped by each dim's coefficient instead of recomputed.
    IntVec iter(size_t(nd), 0);
    int pos;
    do {
        body(w.op, ops[0].data[ops[0].off], operand);
        for (pos = nd - 1; pos >= 0; pos--) {
            const size_t d = size_t(pos);
            if (++iter[d] < w.iterSizes[d]) {
                for (FlatOperand &o : ops)
                    o.off += o.coef[d];
                break;
            }
            for (FlatOperand &o : ops)
                o.off -= o.coef[d] * (iter[d] - 1);
            iter[d] = 0;
        }
    } while (pos >= 0);
}

void
runMapped(const Workload &w, const DataflowMapping &m, TensorSet &ts)
{
    IntVec t(m.tDims(), 0);
    do {
        IntVec s(m.sDims(), 0);
        do {
            applyBody(w, ts, m.iterAt(t, s));
        } while (advance(s, m.rS));
    } while (advance(t, m.rT));
}

bool
mappingIsBijective(const Workload &w, const DataflowMapping &m)
{
    if (m.timeSteps() * m.numFUs() != w.iterationCount())
        return false;
    std::vector<char> seen(size_t(w.iterationCount()), 0);
    IntVec t(m.tDims(), 0);
    do {
        IntVec s(m.sDims(), 0);
        do {
            IntVec iter = m.iterAt(t, s);
            Int flat = 0;
            for (size_t d = 0; d < iter.size(); d++) {
                if (iter[d] < 0 || iter[d] >= w.iterSizes[d])
                    return false;
                flat = flat * w.iterSizes[d] + iter[d];
            }
            if (seen[size_t(flat)])
                return false;
            seen[size_t(flat)] = 1;
        } while (advance(s, m.rS));
    } while (advance(t, m.rT));
    for (char c : seen)
        if (!c)
            return false;
    return true;
}

} // namespace lego
