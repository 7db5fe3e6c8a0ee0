/**
 * @file
 * Segment-valued scheduling demo: map ResNet-50 onto a
 * bandwidth-lean LEGO box (2 GB/s DRAM) twice — once with the
 * classical layer-valued scheduler (every layer owns the whole PE
 * array in turn) and once with SET-style inter-layer spatial
 * pipelining, where the segmentation search may give a chain of
 * producer/consumer layers contiguous column slices of the array so
 * their intermediate tensors stream through SRAM + NoC instead of
 * round-tripping through DRAM.
 *
 * Prints the segmented schedule and the pipelined-vs-serial
 * comparison; exits non-zero unless at least one pipelined segment
 * is accepted AND the segmented schedule strictly dominates the
 * serial one on both latency and energy. CI runs it as that gate.
 */

#include <cstdio>

#include "lego.hh"

using namespace lego;

int
main()
{
    // A DRAM-starved deployment point: the default 16x16 LEGO array
    // behind a 2 GB/s LPDDR-class interface. Serial RN50 is memory
    // bound here, which is exactly where forwarding intermediates
    // on-chip pays.
    HardwareConfig hw;
    hw.dram.bandwidthGBs = 2.0;
    Model rn50 = makeResNet50();

    dse::DseOptions serialOpt;
    serialOpt.threads = 1;
    dse::DseEngine serialEngine(serialOpt);
    const ScheduleResult serial =
        serialEngine.mapModelComposed(hw, rn50);

    dse::DseOptions segOpt;
    segOpt.threads = 1;
    segOpt.compose.segment.enable = true;
    dse::DseEngine segEngine(segOpt);
    const ScheduleResult seg = segEngine.mapModelComposed(hw, rn50);

    std::printf("%s @ %.0f GB/s DRAM, %dx%d array\n\n",
                rn50.name.c_str(), hw.dram.bandwidthGBs, hw.rows,
                hw.cols);

    // Walk the segment-valued schedule: singletons are classical
    // whole-array layers, pipelined segments show their per-stage
    // column slices and what the forwarding saved.
    std::size_t pipelined = 0;
    for (const Segment &g : seg.segments) {
        if (!g.pipelined()) {
            const MappedLayer &ml = seg.perLayer[g.first];
            std::printf("  layer %2zu %-8s  cols=%2d  %8lld cyc\n",
                        g.first,
                        rn50.layers[g.first].name.c_str(), hw.cols,
                        (long long)ml.result.cycles);
            continue;
        }
        ++pipelined;
        std::printf("  segment [%zu..%zu] PIPELINED  %8lld cyc, "
                    "%.0f uJ, %lld KB DRAM saved\n",
                    g.first, g.first + g.len - 1,
                    (long long)g.cost.cycles, g.cost.energyPj * 1e-6,
                    (long long)(g.cost.dramBytesSaved / 1024));
        for (const SegmentStage &st : g.stages)
            std::printf("    stage %-8s cols=%2d  compute %8lld "
                        "cyc\n",
                        st.layer.name.c_str(), st.cols,
                        (long long)st.result.cycles);
    }

    const double latRatio = double(seg.summary.totalCycles) /
                            double(serial.summary.totalCycles);
    const double enRatio =
        seg.summary.totalEnergyPj / serial.summary.totalEnergyPj;
    std::printf("\nserial:    %10lld cyc  %12.0f pJ\n",
                (long long)serial.summary.totalCycles,
                serial.summary.totalEnergyPj);
    std::printf("segmented: %10lld cyc  %12.0f pJ  "
                "(%.4fx latency, %.4fx energy)\n",
                (long long)seg.summary.totalCycles,
                seg.summary.totalEnergyPj, latRatio, enRatio);

    const bool ok =
        pipelined > 0 && latRatio < 1.0 && enRatio < 1.0;
    std::printf("%zu pipelined segment(s): %s\n", pipelined,
                ok ? "segmented schedule strictly dominates serial"
                   : "FAIL: no strictly dominating segmentation");
    return ok ? 0 : 1;
}
