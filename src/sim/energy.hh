/**
 * @file
 * Energy/efficiency roll-up helpers shared by the end-to-end benches:
 * converts per-layer results into the GOP/s and GOP/s/W numbers the
 * paper reports.
 */

#ifndef LEGO_SIM_ENERGY_HH
#define LEGO_SIM_ENERGY_HH

#include "sim/perf.hh"

namespace lego
{

/** Aggregate of a full network run. */
struct RunSummary
{
    Int totalCycles = 0;
    Int tensorCycles = 0;
    Int ppuCycles = 0;
    double totalEnergyPj = 0;
    Int totalMacs = 0;
    Int dramBytes = 0;

    double seconds(double freq_ghz) const
    {
        return double(totalCycles) / (freq_ghz * 1e9);
    }
    double gops(double freq_ghz) const
    {
        double s = seconds(freq_ghz);
        return s > 0 ? 2.0 * double(totalMacs) / s / 1e9 : 0;
    }
    double utilization(double peak_gops, double freq_ghz) const
    {
        return peak_gops > 0 ? gops(freq_ghz) / peak_gops : 0;
    }
};

/** Accumulate one layer result (repeat-expanded by the caller). */
void accumulate(RunSummary &sum, const LayerResult &r, bool tensor_op,
                int repeat);

} // namespace lego

#endif // LEGO_SIM_ENERGY_HH
