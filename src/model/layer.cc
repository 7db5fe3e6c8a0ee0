#include "model/layer.hh"

namespace lego
{

Int
Layer::gemmM() const
{
    switch (kind) {
      case LayerKind::Conv:
        return n * oh * ow;
      case LayerKind::DwConv:
        return n * oh * ow * ic; // Channel-parallel pixels.
      case LayerKind::Linear:
      case LayerKind::MatMul:
        return m;
      default:
        return 0;
    }
}

Int
Layer::gemmN() const
{
    switch (kind) {
      case LayerKind::Conv:
        return oc;
      case LayerKind::DwConv:
        return 1; // Per-channel dot products.
      case LayerKind::Linear:
      case LayerKind::MatMul:
        return nOut;
      default:
        return 0;
    }
}

Int
Layer::gemmK() const
{
    switch (kind) {
      case LayerKind::Conv:
        return ic * kh * kw;
      case LayerKind::DwConv:
        return kh * kw;
      case LayerKind::Linear:
      case LayerKind::MatMul:
        return k;
      default:
        return 0;
    }
}

Int
Layer::macs() const
{
    if (!isTensorOp())
        return 0;
    return gemmM() * gemmN() * gemmK();
}

Int
Layer::inputBytes() const
{
    switch (kind) {
      case LayerKind::Conv:
      case LayerKind::DwConv: {
        Int ih = oh * stride + kh - 1;
        Int iw = ow * stride + kw - 1;
        return n * ic * ih * iw;
      }
      case LayerKind::Linear:
      case LayerKind::MatMul:
        return m * k;
      default:
        return elems;
    }
}

Int
Layer::weightBytes() const
{
    switch (kind) {
      case LayerKind::Conv:
        return oc * ic * kh * kw;
      case LayerKind::DwConv:
        return ic * kh * kw;
      case LayerKind::Linear:
        return k * nOut;
      case LayerKind::MatMul:
        return k * nOut; // Second activation operand.
      default:
        return 0;
    }
}

Int
Layer::outputBytes() const
{
    switch (kind) {
      case LayerKind::Conv:
        return n * oc * oh * ow;
      case LayerKind::DwConv:
        return n * ic * oh * ow;
      case LayerKind::Linear:
      case LayerKind::MatMul:
        return m * nOut;
      default:
        return elems;
    }
}

Int
Model::totalMacs() const
{
    Int macs = 0;
    for (const Layer &l : layers)
        macs += Int(l.repeat) * l.macs();
    return macs;
}

Layer
conv(const std::string &name, Int ic, Int oc, Int ohw, Int khw,
     Int stride, int repeat)
{
    Layer l;
    l.kind = LayerKind::Conv;
    l.name = name;
    l.repeat = repeat;
    l.ic = ic;
    l.oc = oc;
    l.oh = l.ow = ohw;
    l.kh = l.kw = khw;
    l.stride = stride;
    return l;
}

Layer
dwconv(const std::string &name, Int c, Int ohw, Int khw, Int stride,
       int repeat)
{
    Layer l;
    l.kind = LayerKind::DwConv;
    l.name = name;
    l.repeat = repeat;
    l.ic = c;
    l.oc = c;
    l.oh = l.ow = ohw;
    l.kh = l.kw = khw;
    l.stride = stride;
    return l;
}

Layer
linear(const std::string &name, Int m, Int k, Int n, int repeat,
       bool batch_amortized)
{
    Layer l;
    l.kind = LayerKind::Linear;
    l.name = name;
    l.repeat = repeat;
    l.m = m;
    l.k = k;
    l.nOut = n;
    l.batchAmortized = batch_amortized;
    return l;
}

Layer
matmul(const std::string &name, Int m, Int k, Int n, int repeat)
{
    Layer l;
    l.kind = LayerKind::MatMul;
    l.name = name;
    l.repeat = repeat;
    l.m = m;
    l.k = k;
    l.nOut = n;
    return l;
}

Layer
ppu(const std::string &name, PpuOp op, Int elems, int repeat)
{
    Layer l;
    l.kind = LayerKind::PpuOpKind;
    l.name = name;
    l.repeat = repeat;
    l.ppu = op;
    l.elems = elems;
    return l;
}

} // namespace lego
