/**
 * @file
 * Irregular feed-forward network: definition and executable form.
 *
 * A NetworkDef is the hardware-agnostic description produced by decoding
 * a NEAT genome ("CreateNet" in the paper's Table III): node ids with
 * bias/activation/aggregation, plus weighted directed connections.
 * Following neat-python's convention, input nodes have negative ids
 * (-1..-n), output nodes are 0..o-1, and hidden nodes are >= o. Inputs
 * are pure value sources and carry no bias/activation.
 *
 * Network is the one-network view of the compiled form: a one-lane
 * batch engine (nn/batch_eval.hh) whose plan holds only the nodes
 * required for the outputs, over a flat value array, in whichever
 * value mode NetworkCompileOptions selects. The INAX model schedules
 * the same analysis's layers (NetStats).
 */

#ifndef E3_NN_NETWORK_HH
#define E3_NN_NETWORK_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.hh"
#include "nn/activations.hh"
#include "nn/aggregations.hh"
#include "nn/compile.hh"

namespace e3 {

/** Hardware-agnostic network description (decoded genome). */
struct NetworkDef
{
    /** Non-input node: carries bias, activation and aggregation. */
    struct Node
    {
        int id;
        double bias = 0.0;
        Activation act = Activation::Sigmoid;
        Aggregation agg = Aggregation::Sum;
    };

    /** Directed weighted connection (enabled genes only). */
    struct Conn
    {
        int from;
        int to;
        double weight;
    };

    std::vector<int> inputIds;  ///< by convention -1..-n
    std::vector<int> outputIds; ///< by convention 0..o-1
    std::vector<Node> nodes;    ///< output + hidden nodes
    std::vector<Conn> conns;    ///< enabled connections

    /** Convenience: a def with standard ids and no hidden nodes. */
    static NetworkDef empty(size_t numInputs, size_t numOutputs);
};

class BatchNetwork;
struct BatchPlan;

/**
 * Compiled network: a one-lane view over the batch engine, for callers
 * that evaluate one network at a time. Every output id has a slot (an
 * output never reached by any connection still exists and emits its
 * activated bias).
 *
 * Contract: activateInto() reads one value per input in inputIds order
 * and writes one value per output in outputIds order, without
 * allocating; the std::vector activate() overload is a thin allocating
 * wrapper over it. A recurrent network advances one synchronous tick
 * per call; reset() clears that state and must be called between
 * episodes (a no-op in effect for the stateless modes).
 */
class Network
{
  public:
    /**
     * Compile a definition in the value mode @p options selects (prunes
     * nodes not required for the outputs). Panics on a def no
     * evaluator can build: missing inputs or outputs, duplicate node
     * ids, an undefined output, a cycle in a feed-forward compile, or
     * invalid options. compileNetwork() is the checked entry point.
     */
    static Network create(const NetworkDef &def,
                          const NetworkCompileOptions &options = {});

    Network(Network &&) noexcept;
    Network &operator=(Network &&) noexcept;
    ~Network();

    /**
     * Run one inference (one tick for a recurrent network).
     * @param inputs one value per input id, in inputIds order
     * @param outputs one value per output id, in outputIds order
     */
    void activateInto(const double *inputs, double *outputs);

    /** Convenience wrapper over activateInto(). */
    std::vector<double> activate(const std::vector<double> &inputs);

    /** Clear cross-step state (the start of an episode). */
    void reset();

    size_t numInputs() const;
    size_t numOutputs() const;

    /** Total value-array slots (inputs + compiled nodes). */
    size_t valueSlots() const;

    /**
     * The value array of the most recent activate() call: input slots
     * first, then one slot per compiled node (DefAnalysis::slot).
     * Indexed exactly like the verifier's networkValueBounds(), which
     * is what makes per-node bound checks possible from the outside.
     */
    std::span<const double> values() const;

    /** The compiled one-lane program. */
    const BatchPlan &plan() const;

  private:
    Network();

    std::unique_ptr<BatchNetwork> lane_;
};

/**
 * Compile a definition like Network::create, but report a malformed
 * definition (checkDefInvariants), an invalid fixed-point format or
 * the unsupported recurrent+quantized combination as an error Status —
 * compiling user-supplied genomes never aborts the process.
 */
Result<Network> compileNetwork(const NetworkDef &def,
                               const NetworkCompileOptions &options = {});

} // namespace e3

#endif // E3_NN_NETWORK_HH
