/**
 * @file
 * The verifier's reference layering: a deliberately simple, set-based
 * restatement of neat-python's required_for_output() and
 * feed_forward_layers(), kept independent of the production analysis
 * in nn/layering so the two can check each other. The equivalence
 * tests compare the flat analysis against it, and ReferenceNetwork
 * compiles from it: the layered per-genome evaluator that is the
 * tests' numeric oracle, the benches' one-genome-at-a-time baseline
 * and, through the lane it emits, E3V306's expected fold sequence.
 */

#ifndef E3_VERIFY_REFERENCE_LAYERING_HH
#define E3_VERIFY_REFERENCE_LAYERING_HH

#include <cstdint>
#include <set>
#include <vector>

#include "nn/batch_eval.hh"

namespace e3::verify {

/**
 * Nodes required to compute the outputs: every non-input node from
 * which an output is reachable. Output nodes are always required.
 */
std::set<int> referenceRequiredNodes(const NetworkDef &def);

/**
 * Dependency layers of the required non-input nodes by fixed-point
 * rounds: round k places every unplaced node whose ingress sources
 * are inputs or placed before round k, ids ascending. Connections from
 * unrequired nodes are ignored; ingress-free nodes land in the first
 * layer. Nodes on a cycle are never placed and are left out.
 */
std::vector<std::vector<int>> referenceLayers(const NetworkDef &def);

/** True if every required non-input node gets a layer. */
bool referenceIsAcyclic(const NetworkDef &def);

/**
 * The layered per-genome evaluator, compiled from referenceLayers()
 * with nothing shared with the production compiler. Inputs take slots
 * 0..n-1 (a repeated input id keeps its last position) and the layered
 * nodes follow in layer order; each node keeps its own vector of
 * ingress links from inputs or required nodes, in def order, and folds
 * them with Aggregator.
 */
class ReferenceNetwork
{
  public:
    /** Compile @p def. @pre def verifies clean (verifyNetworkDef). */
    static ReferenceNetwork create(const NetworkDef &def);

    /** Run one inference, with Network::activateInto's contract. */
    void activateInto(const double *inputs, double *outputs);

    /** Allocating wrapper over activateInto(). */
    std::vector<double> activate(const std::vector<double> &inputs);

    size_t numInputs() const { return numInputs_; }
    size_t numOutputs() const { return outputSlots_.size(); }

    /**
     * Append this network to @p plan as one lane program, after the
     * last lane: the lane the SoA compiler must emit for the def.
     * Consecutive nodes sharing (activation, aggregation) share a
     * segment.
     */
    void appendLaneTo(BatchPlan &plan) const;

  private:
    struct Node
    {
        uint32_t slot;
        double bias;
        Activation act;
        Aggregation agg;
        std::vector<BatchPlan::Op> links; ///< ingress, def order
    };

    ReferenceNetwork() = default;

    size_t numInputs_ = 0;
    std::vector<std::vector<Node>> layers_;
    std::vector<uint32_t> outputSlots_;
    std::vector<double> values_;
};

} // namespace e3::verify

#endif // E3_VERIFY_REFERENCE_LAYERING_HH
