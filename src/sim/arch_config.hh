/**
 * @file
 * Hardware configuration of a LEGO-generated accelerator instance and
 * its silicon roll-up (FU array + buffers + NoC + PPUs), used by the
 * end-to-end evaluation (Fig. 11/12, Tables II-V).
 */

#ifndef LEGO_SIM_ARCH_CONFIG_HH
#define LEGO_SIM_ARCH_CONFIG_HH

#include <string>
#include <vector>

#include "sim/dram.hh"
#include "sim/noc.hh"
#include "sim/sram.hh"

namespace lego
{

/** Spatial dataflows a design can switch between at runtime. */
enum class DataflowTag
{
    MN,    //!< Output pixels x output channels (M x N).
    ICOC,  //!< Input channels x output channels (K x N for GEMM).
    OHOW,  //!< Output rows x columns (ShiDianNao-style).
    KHOH,  //!< Kernel rows x output rows (Eyeriss-style).
};

std::string dataflowTagName(DataflowTag t);

/** A deployable accelerator instance. */
struct HardwareConfig
{
    std::string name = "LEGO";
    int rows = 16, cols = 16; //!< FU array (per PE cluster).
    Int l1Kb = 256;           //!< On-chip buffer capacity (KB).
    double freqGhz = 1.0;
    DramSpec dram;
    int numPpus = 16;
    int dataBits = 8;
    std::vector<DataflowTag> dataflows = {DataflowTag::MN,
                                          DataflowTag::ICOC};
    /** L2 NoC grid of PE clusters (1x1 = single cluster). */
    int l2X = 1, l2Y = 1;
    /**
     * When true, dataflow fusion is the naive multiplexer merge
     * (Table V's "Simply Merged" row) instead of the heuristic
     * interconnection planning: every extra dataflow pays the full
     * mux/datapath duplication.
     */
    bool naiveFusion = false;

    int totalFus() const { return rows * cols * l2X * l2Y; }
    double peakGops() const
    {
        return 2.0 * double(totalFus()) * freqGhz;
    }
};

/** Area/power breakdown of the whole chip (Fig. 12a). */
struct ChipCost
{
    double fuArrayAreaUm2 = 0;
    double buffersAreaUm2 = 0;
    double nocAreaUm2 = 0;
    double ppusAreaUm2 = 0;

    double fuArrayPowerUw = 0;
    double buffersPowerUw = 0;
    double nocPowerUw = 0;
    double ppusPowerUw = 0;

    double sramReadPj = 0; //!< Per L1 access (per bank word).

    double totalAreaMm2() const
    {
        return (fuArrayAreaUm2 + buffersAreaUm2 + nocAreaUm2 +
                ppusAreaUm2) /
               1e6;
    }
    double totalPowerMw() const
    {
        return (fuArrayPowerUw + buffersPowerUw + nocPowerUw +
                ppusPowerUw) /
               1e3;
    }
};

/**
 * Analytic chip roll-up. FU-array constants are aligned with the
 * DAG-level cost model so kernel-level (generated) and chip-level
 * (analytic) numbers compose consistently; fused multi-dataflow
 * designs carry the measured interconnect/mux overhead factor.
 */
ChipCost archCost(const HardwareConfig &hw);

} // namespace lego

#endif // LEGO_SIM_ARCH_CONFIG_HH
