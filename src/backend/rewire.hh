/**
 * @file
 * Broadcast pin rewiring (paper Section V-B, Fig. 8).
 *
 * A broadcast source whose destinations need different arrival times
 * pays one register chain *per destination* after naive delay
 * matching. The three-stage heuristic:
 *
 *  1. Re-price each broadcast star in the delay-matching LP through
 *     a virtual max-node, so the LP only pays the *maximum* latency
 *     once per star (this stays a difference-constraint system).
 *  2. Rewire each star with a spanning chain over spatially adjacent
 *     destinations ordered by needed delay; forwarding hops cost the
 *     per-hop *difference* instead of the absolute delay. Hops must
 *     be monotone in every config (programmed skews included), else
 *     the destination stays directly attached.
 *  3. Re-run delay matching on the rewired graph (the pass manager
 *     does this) to redistribute the remaining static latencies.
 */

#ifndef LEGO_BACKEND_REWIRE_HH
#define LEGO_BACKEND_REWIRE_HH

#include "backend/dag.hh"
#include "lp/netflow.hh"

namespace lego
{

/** Pass statistics. */
struct RewireStats
{
    int starsRewired = 0;
    int tapsInserted = 0;
    Int regBitsSavedEstimate = 0;
    FlowStats lp; //!< The stage-1 LP solver's work.
};

/** Apply stages 1 and 2; caller re-runs delay matching (stage 3). */
RewireStats rewireBroadcasts(Dag &dag);

} // namespace lego

#endif // LEGO_BACKEND_REWIRE_HH
