/**
 * @file
 * Dense MLP counterpart of an irregular network (paper Fig. 4(d)).
 *
 * A regular layer-by-layer accelerator (e.g. a systolic array) can only
 * consume values produced by the immediately preceding layer. To execute
 * an irregular network whose connections skip layers, every skipped
 * value must be relayed through *dummy passthrough nodes* in each
 * intermediate layer, and each layer pair is then processed as a dense
 * matrix-vector product (absent connections become zeros). This module
 * computes that padded structure; the SystolicArray model charges cycles
 * against it (Fig. 11).
 */

#ifndef E3_NN_DENSE_EQUIVALENT_HH
#define E3_NN_DENSE_EQUIVALENT_HH

#include <cstdint>
#include <vector>

#include "nn/net_stats.hh"

namespace e3 {

/** Padded dense structure equivalent to an irregular network. */
struct DenseEquivalent
{
    /**
     * Per-layer widths after dummy-node padding; entry 0 is the input
     * layer. A width counts real nodes plus relayed (dummy) values that
     * must flow through the layer.
     */
    std::vector<size_t> layerSizes;

    /** Total dummy relay nodes added across all layers. */
    size_t dummyNodes = 0;

    /** Real (non-dummy) nodes, excluding inputs. */
    size_t realNodes = 0;

    /**
     * Connections of the dense counterpart: adjacent padded layers fully
     * connected. This is the MAC work a dense accelerator performs.
     */
    uint64_t denseConnections() const
    {
        return denseConnectionCount(layerSizes);
    }
};

/** Build the dense counterpart of a network definition. */
DenseEquivalent denseEquivalent(const NetworkDef &def);

} // namespace e3

#endif // E3_NN_DENSE_EQUIVALENT_HH
