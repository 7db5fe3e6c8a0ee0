/**
 * @file
 * Neural-network layer IR used by the end-to-end evaluation: tensor
 * layers (convolutions, linear/matmul) executed on the generated FU
 * array, and non-tensor layers (activations, normalization, softmax,
 * pooling, residual adds) executed on the post-processing units.
 */

#ifndef LEGO_MODEL_LAYER_HH
#define LEGO_MODEL_LAYER_HH

#include <string>
#include <vector>

#include "core/types.hh"
#include "sim/ppu.hh"

namespace lego
{

enum class LayerKind
{
    Conv,    //!< Dense convolution.
    DwConv,  //!< Depthwise convolution (groups == channels).
    Linear,  //!< Fully connected / projection GEMM (M=batch rows).
    MatMul,  //!< Activation-activation GEMM (attention scores/AV).
    PpuOpKind, //!< Non-tensor op on the PPUs.
};

/** One layer instance (repeat collapses identical blocks). */
struct Layer
{
    LayerKind kind = LayerKind::Conv;
    std::string name;
    int repeat = 1;

    // Convolutions.
    Int n = 1, ic = 0, oc = 0, oh = 0, ow = 0, kh = 1, kw = 1;
    Int stride = 1;

    // Linear / MatMul as M x K -> M x N.
    Int m = 0, k = 0, nOut = 0;
    /**
     * Weight-resident batch amortization: when true, the weight
     * traffic is counted once for the whole batch (decode-time GEMV
     * batching in LLaMA bs=32).
     */
    bool batchAmortized = false;

    // PPU ops.
    PpuOp ppu = PpuOp::Relu;
    Int elems = 0;

    bool isTensorOp() const { return kind != LayerKind::PpuOpKind; }

    /** GEMM-view dimensions (M, N, K) of the tensor op. */
    Int gemmM() const;
    Int gemmN() const;
    Int gemmK() const;

    /** Multiply-accumulates (per repeat instance). */
    Int macs() const;

    /** Unique operand footprints in bytes (8-bit data). */
    Int inputBytes() const;
    Int weightBytes() const;
    Int outputBytes() const;
};

/** A whole network. */
struct Model
{
    std::string name;
    std::vector<Layer> layers;

    Int totalMacs() const;
    /** Total ops = 2 * MACs (the GOP/s denominators in the paper). */
    Int totalOps() const { return 2 * totalMacs(); }
};

/** @name Layer construction helpers. @{ */
Layer conv(const std::string &name, Int ic, Int oc, Int ohw, Int khw,
           Int stride = 1, int repeat = 1);
Layer dwconv(const std::string &name, Int c, Int ohw, Int khw,
             Int stride = 1, int repeat = 1);
Layer linear(const std::string &name, Int m, Int k, Int n,
             int repeat = 1, bool batch_amortized = false);
Layer matmul(const std::string &name, Int m, Int k, Int n,
             int repeat = 1);
Layer ppu(const std::string &name, PpuOp op, Int elems,
          int repeat = 1);
/** @} */

} // namespace lego

#endif // LEGO_MODEL_LAYER_HH
