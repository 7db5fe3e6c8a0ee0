/**
 * @file
 * Hardware primitive library for the Detailed Architecture Graph
 * (paper Section V). DAG nodes are primitives — counters, address
 * generators, arithmetic, muxes, FIFOs, memory ports — with internal
 * latencies; DAG edges carry bit-widths and pipeline registers.
 */

#ifndef LEGO_BACKEND_PRIMITIVES_HH
#define LEGO_BACKEND_PRIMITIVES_HH

#include <string>

#include "core/types.hh"

namespace lego
{

/** Primitive operation kinds. */
enum class PrimOp
{
    Const,    //!< Constant value.
    Counter,  //!< Mixed-radix timestamp counter (the control unit).
    Tap,      //!< Control distribution point (bus repeater).
    AddrGen,  //!< Affine map local-time -> memory address (+ valid).
    Valid,    //!< Delay-window validity comparator (FIFO data valid).
    MemRead,  //!< L1 read port: addr -> data.
    MemWrite, //!< L1 write port: addr, data (+accumulate), gated.
    Mul,      //!< Multiplier.
    Add,      //!< Adder.
    Shl,      //!< Barrel shifter (BitFusion-style FUs).
    Max,      //!< Max unit (pooling FUs).
    Mux,      //!< Config-selected multiplexer.
    Reduce,   //!< Balanced reduction tree (post-extraction).
    Fifo,     //!< Programmable-depth delay line.
    Sink,     //!< Architectural sink marker (debug/observability).
};

/** Printable name, also used as the Verilog module base name. */
std::string primOpName(PrimOp op);

/**
 * Internal latency of a primitive in cycles (the L_v of Eq. 10).
 * Multipliers and memory reads are pipelined by one stage; everything
 * else is combinational within a cycle at the target frequency.
 */
Int primLatency(PrimOp op);

} // namespace lego

#endif // LEGO_BACKEND_PRIMITIVES_HH
