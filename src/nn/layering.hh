/**
 * @file
 * One flat analysis of a NetworkDef, shared by every consumer of its
 * topology: NetStats, FeedForwardNetwork, the SoA batch compiler and
 * checkDefInvariants. A single pass over dense indices of the def's
 * sorted ids marks required nodes with a reverse walk and layers them
 * with a level-by-level Kahn pass, following neat-python's
 * feed_forward_layers: layer k holds every required non-input node
 * whose ingress comes from inputs or layers < k, ids ascending.
 */

#ifndef E3_NN_LAYERING_HH
#define E3_NN_LAYERING_HH

#include <cstdint>
#include <vector>

#include "common/result.hh"
#include "nn/network.hh"

namespace e3 {

/**
 * Topology of one definition. Index i names ids[i]; every id the def
 * mentions (inputs, outputs, nodes, connection endpoints) has one.
 * Reusing a DefAnalysis keeps the pass allocation-free once its
 * buffers have grown.
 */
struct DefAnalysis
{
    enum : uint8_t
    {
        kInput = 1,    ///< listed in inputIds
        kNode = 2,     ///< defined in nodes
        kRequired = 4, ///< an output, or feeds one through non-inputs
    };
    static constexpr uint32_t kNone = UINT32_MAX;

    std::vector<int> ids;         ///< sorted distinct ids
    std::vector<uint8_t> flags;   ///< per index
    std::vector<uint32_t> nodeAt; ///< first def.nodes position, or kNone
    /**
     * Value slot per index: an input's (last) position in inputIds,
     * numInputs + execution position for a layered node, else kNone.
     */
    std::vector<uint32_t> slot;
    std::vector<uint32_t> activeIn; ///< active ingress count per index
    std::vector<uint32_t> connFrom; ///< per connection: source index
    std::vector<uint32_t> connTo;   ///< per connection: target index
    /** Connections by target index, def order: [ingressBegin[i], [i+1]). */
    std::vector<uint32_t> ingressBegin, ingress;
    std::vector<uint32_t> order;    ///< layered indices, execution order
    std::vector<uint32_t> layerEnd; ///< each layer's end within order
    bool acyclic = true; ///< every required non-input node is layered
    /** First checkDefInvariants violation other than a cycle. */
    Status defect;

    /** Index of @p id, or ids.size() when the def never mentions it. */
    size_t indexOf(int id) const;

    bool has(uint32_t i, uint8_t flag) const { return flags[i] & flag; }

    bool
    isRequired(int id) const
    {
        const size_t i = indexOf(id);
        return i < ids.size() && has(static_cast<uint32_t>(i), kRequired);
    }

    /** Connection @p c feeds a required node from an input or one. */
    bool
    activeConn(size_t c) const
    {
        return has(connTo[c], kRequired) &&
               has(connFrom[c], kInput | kRequired);
    }

    size_t layerCount() const { return layerEnd.size(); }
    uint32_t layerBegin(size_t l) const { return l ? layerEnd[l - 1] : 0; }

    /** Call @p f(c) per active ingress connection of @p i, def order. */
    template <typename F>
    void
    forEachActiveIngress(uint32_t i, F &&f) const
    {
        for (uint32_t k = ingressBegin[i]; k != ingressBegin[i + 1]; ++k) {
            if (activeConn(ingress[k]))
                f(ingress[k]);
        }
    }

    /**
     * Index @p i compiled as an evaluator node: its attributes and its
     * active ingress links in def order, reading value slots @p slots.
     */
    EvalNode evalNode(const NetworkDef &def, uint32_t i,
                      const std::vector<uint32_t> &slots) const;

    /** Panic naming the first unplaceable node unless acyclic. */
    void assertAcyclic() const;

    /**
     * Panic unless an evaluator can be built: inputs and outputs
     * present, node ids unique and every output defined.
     */
    void assertBuildable(const NetworkDef &def) const;

    /** Pass scratch: egress lists and Kahn counters. */
    std::vector<uint32_t> egressBegin_, egress_, pending_;
};

/** Run the analysis of @p def into @p out, reusing its buffers. */
void analyzeDef(const NetworkDef &def, DefAnalysis &out);

/**
 * Analyze @p def into the calling thread's scratch analysis, which the
 * next call on this thread overwrites.
 */
const DefAnalysis &analyzeDef(const NetworkDef &def);

/**
 * Dependency layers of the required non-input nodes, in execution
 * order. Connections from unrequired nodes are ignored. Required nodes
 * with no ingress at all (an output whose last in-connection was
 * deleted) are ready from the start, so they land in the first layer.
 * Panics on a cycle.
 */
std::vector<std::vector<int>> feedForwardLayers(const NetworkDef &def);

/** True if the required nodes are acyclic (feed-forward executable). */
bool isAcyclic(const NetworkDef &def);

} // namespace e3

#endif // E3_NN_LAYERING_HH
