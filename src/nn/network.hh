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
 * FeedForwardNetwork is the one-network view of the compiled form: a
 * one-lane SoA plan (nn/batch_eval.hh) holding only the nodes required
 * for the outputs, in dependency order, over a flat value array. The
 * INAX model schedules the same analysis's layers (NetStats).
 */

#ifndef E3_NN_NETWORK_HH
#define E3_NN_NETWORK_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nn/activations.hh"
#include "nn/aggregations.hh"

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

/**
 * Common interface of every executable network form (feed-forward,
 * recurrent, quantized). Evaluators, benches and the replay path
 * program against this contract instead of switching on concrete
 * types; compileNetwork() (nn/compile.hh) picks the implementation.
 *
 * Contract: the span-style activateInto() core reads one value per
 * input in inputIds order and writes one value per output in outputIds
 * order; the std::vector activate() overload is a thin allocating
 * wrapper over it. reset() clears any cross-step state (a no-op for
 * stateless networks) and must be called between episodes.
 */
class Network
{
  public:
    virtual ~Network() = default;

    /**
     * Run one inference (one synchronous tick for stateful nets).
     * Reads exactly numInputs() doubles from @p inputs and writes
     * exactly numOutputs() doubles to @p outputs; implementations do
     * not allocate. This is the core every batch evaluator drives.
     */
    virtual void activateInto(const double *inputs,
                              double *outputs) = 0;

    /** Convenience wrapper over activateInto(). */
    std::vector<double> activate(const std::vector<double> &inputs);

    /** Clear cross-step state; default is stateless. */
    virtual void reset() {}

    virtual size_t numInputs() const = 0;
    virtual size_t numOutputs() const = 0;
};

class BatchEvaluator;
struct BatchPlan;

/**
 * Compiled irregular feed-forward network: a one-lane view over the
 * SoA batch engine, for callers that evaluate one network at a time.
 * Every output id has a slot (an output never reached by any
 * connection still exists and emits its activated bias).
 */
class FeedForwardNetwork : public Network
{
  public:
    /**
     * Compile a definition (prunes nodes not required for the
     * outputs). Panics on a def no evaluator can build: missing inputs
     * or outputs, duplicate node ids, an undefined output or a cycle.
     */
    static FeedForwardNetwork create(const NetworkDef &def);

    FeedForwardNetwork(FeedForwardNetwork &&) noexcept;
    FeedForwardNetwork &operator=(FeedForwardNetwork &&) noexcept;
    ~FeedForwardNetwork() override;

    /**
     * Run one inference.
     * @param inputs one value per input id, in inputIds order
     * @param outputs one value per output id, in outputIds order
     */
    void activateInto(const double *inputs, double *outputs) override;

    size_t numInputs() const override;
    size_t numOutputs() const override;

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
    FeedForwardNetwork();

    std::unique_ptr<BatchEvaluator> lane_;
};

} // namespace e3

#endif // E3_NN_NETWORK_HH
