/**
 * @file
 * Structural statistics of irregular networks — the quantities behind
 * the paper's Fig. 4 (density trace, node-degree distribution,
 * layer-size histogram) and Tables IV/V (op and complexity counts).
 */

#ifndef E3_NN_NET_STATS_HH
#define E3_NN_NET_STATS_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "nn/network.hh"

namespace e3 {

/** Structural summary of one network. */
struct NetStats
{
    size_t activeNodes = 0;       ///< required non-input nodes
    uint64_t activeConnections = 0; ///< connections among required nodes
    std::vector<size_t> layerSizes; ///< dependency layers (no inputs)
    std::vector<size_t> inDegrees;  ///< ingress count per active node

    /**
     * Paper's density metric: active connections divided by the
     * connection count of the dense MLP with the same layer sizes
     * (inputs + dependency layers, adjacent layers fully connected).
     * Cross-layer links can push this above 1.0 (Fig. 4(c)).
     */
    double density = 0.0;

    /** MAC operations for one inference (== activeConnections). */
    uint64_t forwardMacs() const { return activeConnections; }

    /**
     * Approximate forward op count: one multiply + one add per
     * connection, plus one bias add and one activation per node.
     */
    uint64_t forwardOps() const
    {
        return 2 * activeConnections + 2 * activeNodes;
    }

    /**
     * Model memory footprint in bytes at the given precision: one word
     * per connection weight, plus bias + activation slot per node.
     */
    uint64_t memoryBytes(size_t bytesPerWord = 4) const
    {
        return bytesPerWord * (activeConnections + 2 * activeNodes);
    }
};

/** Compute structural statistics for a network definition. */
NetStats computeNetStats(const NetworkDef &def);

struct DefAnalysis;

/** The same statistics from an existing analysis of @p def. */
NetStats netStatsOf(const NetworkDef &def, const DefAnalysis &analysis);

/**
 * Activation density: the fraction of MAC operands that are non-zero
 * when the network runs on random inputs. Sigmoid nets are ~fully
 * dense; ReLU-heavy evolved nets leave many MACs with a zero operand —
 * the activation sparsity the paper flags as future work and the
 * zero-skip PE extension (InaxConfig::activationDensity) exploits.
 *
 * @param net compiled network (its value state is clobbered)
 * @param samples random input vectors to average over
 * @param rng input-sampling stream (inputs uniform in [-1, 1])
 * @return executed-MAC fraction in (0, 1]; 1.0 for link-free nets
 */
double measureActivationDensity(FeedForwardNetwork &net,
                                size_t samples, Rng &rng);

/**
 * Connection count of the dense layer-by-layer MLP with the given layer
 * sizes (first entry = input layer).
 */
uint64_t denseConnectionCount(const std::vector<size_t> &layerSizes);

} // namespace e3

#endif // E3_NN_NET_STATS_HH
