/**
 * @file
 * Cycle-accurate DAG interpreter — this repository's substitute for
 * the paper's RTL simulation. It executes the *generated* primitive
 * graph (operand muxes, forwarding chains, programmed FIFOs, address
 * generators, pipeline registers inserted by delay matching) cycle by
 * cycle against real tensor data, so a mismatch anywhere in the flow
 * (front-end planning, codegen, any back-end pass) shows up as a
 * wrong output tensor.
 *
 * Semantics: output(v, g) = f_v(inputs at cycle g - L_v), where input
 * i at cycle t is output(producer_i, t - delay(edge_i)), with
 * delay = static pipeline registers + per-config programmed depth.
 * Values before cycle 0 are the undefined sentinel, which propagates
 * and gates memory writes (pipeline fill never corrupts memory).
 *
 * A run has two steps. Elaboration turns the config into a flat
 * program once: the live nodes in topological order, each input pin
 * resolved to its producer and look-back L_v + delay (from the first
 * non-dead edge on the pin), and the per-config payload picked out
 * (address coefficients and radix, FIFO offsets, mux selects, reduce
 * pins, the bound tensor). The cycle loop then runs that program.
 * No read looks back more than max(L_v + delay) cycles, so the
 * history is a ring of that many rows plus one, not a nodes x cycles
 * array. Every memory port checks its address against its tensor's
 * size and panics, naming the node, on an address outside it.
 */

#ifndef LEGO_BACKEND_INTERP_HH
#define LEGO_BACKEND_INTERP_HH

#include "backend/codegen.hh"
#include "core/reference.hh"

namespace lego
{

/** Statistics of one interpreted run. */
struct InterpStats
{
    Int cycles = 0;       //!< Total simulated cycles.
    Int writes = 0;       //!< Committed memory writes.
    Int reads = 0;        //!< Memory reads issued (valid addresses).
    Int pipelineDepth = 0; //!< Longest static path (fill latency).
};

/**
 * Execute config `cfg` of the generated design on the tensors in
 * `ts` (inputs pre-filled; output updated in place, accumulating).
 * The workload/dataflow are taken from the ADG's config table.
 */
InterpStats runOnHardware(const CodegenResult &gen, const Adg &adg,
                          int cfg, TensorSet &ts);

/**
 * Convenience harness: build inputs from `seed`, run the reference
 * executor and the hardware interpreter, and compare outputs.
 * Returns true when the generated hardware computes exactly the
 * reference result.
 */
bool verifyAgainstReference(const CodegenResult &gen, const Adg &adg,
                            int cfg, unsigned seed,
                            InterpStats *stats = nullptr);

} // namespace lego

#endif // LEGO_BACKEND_INTERP_HH
