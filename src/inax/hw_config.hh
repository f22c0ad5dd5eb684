/**
 * @file
 * Hardware configuration of the INAX accelerator model.
 *
 * INAX (paper Sec. IV) is a cluster of Processing Units (PUs), each a
 * cluster of Processing Elements (PEs). PUs parallelize across
 * individuals of the population; PEs parallelize across independent
 * nodes within one individual's network. The knobs here are the design
 * points the paper sweeps in Figs. 6/7/9/11.
 */

#ifndef E3_INAX_HW_CONFIG_HH
#define E3_INAX_HW_CONFIG_HH

#include <cstddef>
#include <span>
#include <string>

#include "common/result.hh"

namespace e3 {

/** Design-time configuration of the accelerator. */
struct InaxConfig
{
    size_t numPUs = 1;  ///< individuals computed in parallel
    size_t numPEs = 1;  ///< nodes computed in parallel inside a PU

    /** Fabric clock in MHz (Zynq UltraScale+ class fabric). */
    double clockMhz = 200.0;

    /** Words per cycle on the weight (configuration) DMA channel. */
    size_t weightChannelWidth = 4;

    /** Words per cycle on the input/output DMA channels. */
    size_t ioChannelWidth = 4;

    /** Fixed cycles of DMA transaction latency per transfer. */
    size_t dmaLatency = 8;

    /** PE pipeline depth: bias add + activation stages after the MACs. */
    size_t pePipelineLatency = 4;

    /** Controller cycles to synchronize PEs between layers. */
    size_t layerSyncCycles = 2;

    /**
     * Largest network (in non-input nodes) a PU's buffers support —
     * the design-time capacity that worst-case dataflows must
     * provision against (paper Sec. IV-E: "HW needs to meet the worst
     * case").
     */
    size_t maxSupportedNodes = 128;

    /** sig-channel start/done handshake cycles per evaluate iteration. */
    size_t stepSyncCycles = 16;

    /**
     * Zero-skip PE extension (the paper's "activation sparsity ...
     * ripe for future work"): the expected fraction of MAC operands
     * that are non-zero. 1.0 models the paper's baseline PE (every
     * ingress connection costs a cycle); pass measureActivationDensity()
     * of the compiled plan's ops to model PEs that skip zero operands.
     */
    double activationDensity = 1.0;

    /** Seconds per cycle. */
    double secondsPerCycle() const { return 1e-6 / clockMhz; }

    /** The first out-of-range knob of inaxKnobRules(), as an error. */
    Status validate() const;

    /** One-line description for bench output. */
    std::string describe() const;

    /**
     * The paper's heuristic configuration (Sec. V / VI-C): one PE per
     * output node, 50 PUs.
     */
    static InaxConfig paperDefault(size_t numOutputs);
};

/** The range rule of one InaxConfig knob. */
struct InaxKnobRule
{
    const char *knob;    ///< the InaxConfig member it checks
    const char *message; ///< what an out-of-range value breaks
    /** True when the knob is in range (false for NaN). */
    bool (*inRange)(const InaxConfig &cfg);
};

/**
 * Every knob range rule, in member order: the one list both
 * InaxConfig::validate() and the verifier's E3V201 pass walk.
 */
std::span<const InaxKnobRule> inaxKnobRules();

} // namespace e3

#endif // E3_INAX_HW_CONFIG_HH
