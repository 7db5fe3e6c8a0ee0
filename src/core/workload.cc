#include "core/workload.hh"

#include <algorithm>

namespace lego
{

IntVec
DataMapping::apply(const IntVec &iter) const
{
    IntVec d = m * iter;
    if (!bias.empty()) {
        if (bias.size() != d.size())
            panic("DataMapping: bias rank mismatch");
        d = addVec(d, bias);
    }
    return d;
}

int
opInputCount(OpKind op)
{
    switch (op) {
      case OpKind::Mac:
        return 2;
      case OpKind::MulMulAdd:
        return 3;
      case OpKind::MulShiftAdd:
        return 3;
      case OpKind::MaxReduce:
        return 1;
    }
    panic("opInputCount: bad OpKind");
}

std::string
opKindName(OpKind op)
{
    switch (op) {
      case OpKind::Mac:
        return "mac";
      case OpKind::MulMulAdd:
        return "mul_mul_add";
      case OpKind::MulShiftAdd:
        return "mul_shift_add";
      case OpKind::MaxReduce:
        return "max_reduce";
    }
    panic("opKindName: bad OpKind");
}

int
Workload::tensorIndex(const std::string &tname) const
{
    for (size_t i = 0; i < tensors.size(); i++)
        if (tensors[i].name == tname)
            return int(i);
    fatal("workload '" + name + "': unknown tensor '" + tname + "'");
}

int
Workload::outputTensor() const
{
    for (size_t i = 0; i < tensors.size(); i++)
        if (tensors[i].isOutput)
            return int(i);
    panic("workload '" + name + "' has no output tensor");
}

std::vector<int>
Workload::inputTensors() const
{
    std::vector<int> in;
    for (size_t i = 0; i < tensors.size(); i++)
        if (!tensors[i].isOutput)
            in.push_back(int(i));
    return in;
}

IntVec
Workload::tensorShape(int tensor_idx) const
{
    const DataMapping &dm = mappings.at(tensor_idx);
    const int rank = dm.m.rows();
    IntVec shape(rank, 0);
    // Affine maps reach extremes at domain corners: for each tensor
    // coordinate take sum of per-dim max contributions.
    for (int r = 0; r < rank; r++) {
        Int hi = dm.bias.empty() ? 0 : dm.bias[r];
        for (size_t d = 0; d < iterDims.size(); d++) {
            Int coef = dm.m.at(r, int(d));
            if (coef > 0)
                hi += coef * (iterSizes[d] - 1);
        }
        shape[r] = hi + 1;
    }
    return shape;
}

Int
Workload::totalOps() const
{
    // Count 2 ops per MAC-like body (mul + add), 3 for three-input.
    Int per = 2;
    if (op == OpKind::MulMulAdd || op == OpKind::MulShiftAdd)
        per = 3;
    if (op == OpKind::MaxReduce)
        per = 1;
    return per * iterationCount();
}

void
Workload::validate() const
{
    if (iterDims.size() != iterSizes.size())
        fatal("workload '" + name + "': dim name/size count mismatch");
    if (tensors.size() != mappings.size())
        fatal("workload '" + name + "': tensor/mapping count mismatch");
    for (Int s : iterSizes)
        if (s <= 0)
            fatal("workload '" + name + "': non-positive iteration size");
    int outputs = 0;
    for (const auto &t : tensors)
        outputs += t.isOutput ? 1 : 0;
    if (outputs != 1)
        fatal("workload '" + name + "': exactly one output tensor required");
    for (size_t i = 0; i < tensors.size(); i++) {
        const auto &dm = mappings[i];
        if (dm.m.rows() != tensors[i].rank())
            fatal("workload '" + name + "': mapping rank mismatch for " +
                  tensors[i].name);
        if (dm.m.cols() != int(iterDims.size()))
            fatal("workload '" + name + "': mapping width mismatch for " +
                  tensors[i].name);
        if (!dm.bias.empty() && int(dm.bias.size()) != dm.m.rows())
            fatal("workload '" + name + "': bias rank mismatch for " +
                  tensors[i].name);
    }
    int expected = opInputCount(op);
    if (int(inputTensors().size()) != expected)
        fatal("workload '" + name + "': op needs " +
              std::to_string(expected) + " inputs");
}

namespace
{

/** Build a mapping matrix by naming which iter dim feeds each row. */
IntMat
selectDims(const std::vector<std::string> &iter_dims,
           const std::vector<std::vector<std::pair<std::string, Int>>> &rows)
{
    IntMat m(int(rows.size()), int(iter_dims.size()));
    for (size_t r = 0; r < rows.size(); r++) {
        for (const auto &[dim, coef] : rows[r]) {
            auto it = std::find(iter_dims.begin(), iter_dims.end(), dim);
            if (it == iter_dims.end())
                panic("selectDims: unknown dim " + dim);
            m.at(int(r), int(it - iter_dims.begin())) = coef;
        }
    }
    return m;
}

} // namespace

Workload
makeGemm(Int i, Int j, Int k)
{
    Workload w;
    w.name = "gemm";
    w.iterDims = {"i", "j", "k"};
    w.iterSizes = {i, j, k};
    w.op = OpKind::Mac;

    w.tensors.push_back({"X", {"i", "k"}, false});
    w.mappings.push_back({selectDims(w.iterDims,
        {{{"i", 1}}, {{"k", 1}}}), {}});

    w.tensors.push_back({"W", {"k", "j"}, false});
    w.mappings.push_back({selectDims(w.iterDims,
        {{{"k", 1}}, {{"j", 1}}}), {}});

    w.tensors.push_back({"Y", {"i", "j"}, true});
    w.mappings.push_back({selectDims(w.iterDims,
        {{{"i", 1}}, {{"j", 1}}}), {}});

    w.validate();
    return w;
}

Workload
makeConv2d(Int n, Int ic, Int oc, Int oh, Int ow, Int kh, Int kw)
{
    Workload w;
    w.name = "conv2d";
    w.iterDims = {"n", "oc", "ic", "oh", "ow", "kh", "kw"};
    w.iterSizes = {n, oc, ic, oh, ow, kh, kw};
    w.op = OpKind::Mac;

    w.tensors.push_back({"X", {"n", "ic", "ih", "iw"}, false});
    w.mappings.push_back({selectDims(w.iterDims,
        {{{"n", 1}},
         {{"ic", 1}},
         {{"oh", 1}, {"kh", 1}},
         {{"ow", 1}, {"kw", 1}}}), {}});

    w.tensors.push_back({"W", {"oc", "ic", "kh", "kw"}, false});
    w.mappings.push_back({selectDims(w.iterDims,
        {{{"oc", 1}}, {{"ic", 1}}, {{"kh", 1}}, {{"kw", 1}}}), {}});

    w.tensors.push_back({"Y", {"n", "oc", "oh", "ow"}, true});
    w.mappings.push_back({selectDims(w.iterDims,
        {{{"n", 1}}, {{"oc", 1}}, {{"oh", 1}}, {{"ow", 1}}}), {}});

    w.validate();
    return w;
}

Workload
makeDepthwiseConv2d(Int n, Int c, Int oh, Int ow, Int kh, Int kw)
{
    Workload w;
    w.name = "dwconv2d";
    w.iterDims = {"n", "c", "oh", "ow", "kh", "kw"};
    w.iterSizes = {n, c, oh, ow, kh, kw};
    w.op = OpKind::Mac;

    w.tensors.push_back({"X", {"n", "c", "ih", "iw"}, false});
    w.mappings.push_back({selectDims(w.iterDims,
        {{{"n", 1}},
         {{"c", 1}},
         {{"oh", 1}, {"kh", 1}},
         {{"ow", 1}, {"kw", 1}}}), {}});

    w.tensors.push_back({"W", {"c", "kh", "kw"}, false});
    w.mappings.push_back({selectDims(w.iterDims,
        {{{"c", 1}}, {{"kh", 1}}, {{"kw", 1}}}), {}});

    w.tensors.push_back({"Y", {"n", "c", "oh", "ow"}, true});
    w.mappings.push_back({selectDims(w.iterDims,
        {{{"n", 1}}, {{"c", 1}}, {{"oh", 1}}, {{"ow", 1}}}), {}});

    w.validate();
    return w;
}

Workload
makeMttkrp(Int i, Int j, Int k, Int l)
{
    Workload w;
    w.name = "mttkrp";
    w.iterDims = {"i", "j", "k", "l"};
    w.iterSizes = {i, j, k, l};
    w.op = OpKind::MulMulAdd;

    w.tensors.push_back({"T", {"i", "k", "l"}, false});
    w.mappings.push_back({selectDims(w.iterDims,
        {{{"i", 1}}, {{"k", 1}}, {{"l", 1}}}), {}});

    w.tensors.push_back({"B", {"k", "j"}, false});
    w.mappings.push_back({selectDims(w.iterDims,
        {{{"k", 1}}, {{"j", 1}}}), {}});

    w.tensors.push_back({"C", {"l", "j"}, false});
    w.mappings.push_back({selectDims(w.iterDims,
        {{{"l", 1}}, {{"j", 1}}}), {}});

    w.tensors.push_back({"Y", {"i", "j"}, true});
    w.mappings.push_back({selectDims(w.iterDims,
        {{{"i", 1}}, {{"j", 1}}}), {}});

    w.validate();
    return w;
}

Workload
makeAttentionScore(Int seq, Int dk)
{
    Workload w;
    w.name = "attention_score";
    w.iterDims = {"i", "j", "k"};
    w.iterSizes = {seq, seq, dk};
    w.op = OpKind::Mac;

    w.tensors.push_back({"Q", {"i", "k"}, false});
    w.mappings.push_back({selectDims(w.iterDims,
        {{{"i", 1}}, {{"k", 1}}}), {}});

    w.tensors.push_back({"K", {"j", "k"}, false});
    w.mappings.push_back({selectDims(w.iterDims,
        {{{"j", 1}}, {{"k", 1}}}), {}});

    w.tensors.push_back({"S", {"i", "j"}, true});
    w.mappings.push_back({selectDims(w.iterDims,
        {{{"i", 1}}, {{"j", 1}}}), {}});

    w.validate();
    return w;
}

Workload
makeAttentionContext(Int seq, Int dv)
{
    Workload w;
    w.name = "attention_context";
    w.iterDims = {"i", "k", "j"};
    w.iterSizes = {seq, dv, seq};
    w.op = OpKind::Mac;

    w.tensors.push_back({"A", {"i", "j"}, false});
    w.mappings.push_back({selectDims(w.iterDims,
        {{{"i", 1}}, {{"j", 1}}}), {}});

    w.tensors.push_back({"V", {"j", "k"}, false});
    w.mappings.push_back({selectDims(w.iterDims,
        {{{"j", 1}}, {{"k", 1}}}), {}});

    w.tensors.push_back({"O", {"i", "k"}, true});
    w.mappings.push_back({selectDims(w.iterDims,
        {{{"i", 1}}, {{"k", 1}}}), {}});

    w.validate();
    return w;
}

Workload
makeBitFusionGemm(Int i, Int j, Int k)
{
    Workload w;
    w.name = "bitfusion_gemm";
    w.iterDims = {"i", "j", "k"};
    w.iterSizes = {i, j, k};
    w.op = OpKind::MulShiftAdd;

    w.tensors.push_back({"X", {"i", "k"}, false});
    w.mappings.push_back({selectDims(w.iterDims,
        {{{"i", 1}}, {{"k", 1}}}), {}});

    w.tensors.push_back({"W", {"k", "j"}, false});
    w.mappings.push_back({selectDims(w.iterDims,
        {{{"k", 1}}, {{"j", 1}}}), {}});

    // Per-weight shift amounts (bit-serial composition).
    w.tensors.push_back({"S", {"k", "j"}, false});
    w.mappings.push_back({selectDims(w.iterDims,
        {{{"k", 1}}, {{"j", 1}}}), {}});

    w.tensors.push_back({"Y", {"i", "j"}, true});
    w.mappings.push_back({selectDims(w.iterDims,
        {{{"i", 1}}, {{"j", 1}}}), {}});

    w.validate();
    return w;
}

} // namespace lego
