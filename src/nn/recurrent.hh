/**
 * @file
 * Recurrent evaluation of evolved networks.
 *
 * The original NEAT formulation (and neat-python's RecurrentNetwork)
 * also evolves networks whose connection graph may contain cycles;
 * evaluation then advances one synchronous tick per activate() call,
 * with every node reading the *previous* tick's values. The paper's
 * prototype restricts itself to feed-forward topologies, but the
 * library supports both: set NeatConfig::feedForward = false to let
 * mutation create cycles, and evaluate the result with this class.
 * (A recurrent individual maps naturally onto an INAX PU: the value
 * buffer already holds all activations, and with no intra-tick
 * dependencies every node is schedulable in one wave set.)
 */

#ifndef E3_NN_RECURRENT_HH
#define E3_NN_RECURRENT_HH

#include "nn/batch_eval.hh"

namespace e3 {

/**
 * Synchronous-tick recurrent network.
 *
 * Per activate(): every node computes from the previous tick's value
 * buffer (inputs are updated immediately), then the buffers swap.
 * reset() zeroes the state between episodes.
 */
class RecurrentNetwork : public Network
{
  public:
    /**
     * Compile a definition; cycles are allowed. Nodes not required for
     * the outputs are pruned as in the feed-forward case.
     */
    static RecurrentNetwork create(const NetworkDef &def);

    /** Advance one tick; writes output values after the tick. */
    void activateInto(const double *inputs, double *outputs) override;

    /** Clear all state (start of an episode). */
    void reset() override;

    size_t numInputs() const override { return plan_.numInputs; }
    size_t numOutputs() const override { return plan_.numOutputs; }
    size_t nodeCount() const { return plan_.nodes.size(); }
    uint64_t connectionCount() const { return plan_.ops.size(); }

  private:
    RecurrentNetwork() = default;

    /** One lane: the required nodes in id order, inputs first. */
    BatchPlan plan_;
    std::vector<double> prev_;
    std::vector<double> next_;
};

} // namespace e3

#endif // E3_NN_RECURRENT_HH
