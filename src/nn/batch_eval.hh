/**
 * @file
 * Population-at-a-time batched inference (ROADMAP item 1).
 *
 * BatchNetwork is the batch-first counterpart of Network: N lanes,
 * each an independent network instance — one genome of a population,
 * or N replicas of one champion for request batching. BatchEvaluator
 * is the structure-of-arrays engine behind it: the whole population is
 * compiled once into flat computation lists (the burds-style
 * (srcSlot, dstSlot, weight) triples, factored as per-node op runs so
 * the destination slot is not repeated per edge), sorted at compile
 * time into dependency order and grouped into segments of consecutive
 * nodes sharing (activation, aggregation) so the inner loops are tight
 * folds with zero per-step allocation. Values live in one contiguous
 * arena with a disjoint region per lane, which is what makes
 * activateLane() safe to call concurrently for distinct lanes.
 *
 * Fold-order guarantee: per genome, nodes execute in exactly the
 * order FeedForwardNetwork compiles them (layer order, then node
 * order within the layer) and each node folds its ingress ops in
 * exactly FeedForwardNetwork's link order, seeding the accumulator
 * from the first element like Aggregator does. Results are therefore
 * bit-identical to per-genome FeedForwardNetwork::activate() at any
 * batch size and thread count, keeping RngAudit digests and
 * src/verify interval bounds valid unchanged.
 */

#ifndef E3_NN_BATCH_EVAL_HH
#define E3_NN_BATCH_EVAL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.hh"
#include "nn/compile.hh"
#include "nn/net_stats.hh"
#include "nn/network.hh"

namespace e3 {

/**
 * Batch-first evaluation interface: a fixed set of lanes, each lane an
 * independent network evaluated from strided input/output rows.
 *
 * Contract: lane i reads numInputs() doubles at inputs + i*inputStride
 * and writes numOutputs() doubles at outputs + i*outputStride;
 * activateLane() is the single-lane entry and must be safe to call
 * concurrently for *distinct* lanes (ParallelEval lanes run out of
 * lockstep). reset() clears any cross-step state on every lane.
 */
struct BatchPlan;

class BatchNetwork
{
  public:
    virtual ~BatchNetwork() = default;

    /** Evaluate lanes [0, count) from strided rows; count <= lanes(). */
    virtual void activateBatch(size_t count, const double *inputs,
                               size_t inputStride, double *outputs,
                               size_t outputStride) = 0;

    /** Evaluate one lane; thread-safe across distinct lanes. */
    virtual void activateLane(size_t lane, const double *inputs,
                              double *outputs) = 0;

    /** Clear cross-step state; default is stateless. */
    virtual void reset() {}

    virtual size_t lanes() const = 0;
    virtual size_t numInputs() const = 0;
    virtual size_t numOutputs() const = 0;

    /**
     * The compiled SoA program when this implementation executes one
     * — the verify batch-plan pass (E3V301–E3V306) hooks in here.
     * nullptr for adapter-backed implementations, which have no flat
     * plan to certify.
     */
    virtual const BatchPlan *plan() const { return nullptr; }
};

/**
 * The compiled form of a batch: flat structure-of-arrays computation
 * lists over one contiguous value arena. This is BatchEvaluator's
 * entire execution state except the arena values themselves, exposed
 * as plain data so the src/verify batch-plan pass (E3V301–E3V306) can
 * check a compiled population without reaching into the engine — and
 * so a plan can be serialized, corrupted on purpose and re-verified
 * in fixtures.
 *
 * Invariants (checked by e3::checkPlanInvariants and, independently,
 * by verify::verifyBatchPlan):
 *  - every NodeRun's [opBegin, opEnd) lies inside ops, and every op's
 *    srcSlot (and the node's dstSlot) is inside its lane's slot range;
 *  - each lane's segments exactly partition its node list, in order;
 *  - per-lane arena regions [valueBase, valueBase+slotCount) never
 *    overlap and fit the arena;
 *  - every segment's (activation, aggregation) is a known enumerator,
 *    so the activate dispatch is complete;
 *  - each lane's output map reads numOutputs distinct in-range slots.
 */
struct BatchPlan
{
    /** One fold step: multiply a lane-local value slot by a weight. */
    struct Op
    {
        uint32_t srcSlot; ///< lane-local value slot read
        double weight;
    };

    /** One compiled node: a run [opBegin, opEnd) folded into dstSlot. */
    struct NodeRun
    {
        uint32_t dstSlot; ///< lane-local value slot written
        uint32_t opBegin;
        uint32_t opEnd;
        double bias;
    };

    /** Consecutive nodes sharing (activation, aggregation). */
    struct Segment
    {
        uint32_t nodeBegin;
        uint32_t nodeEnd;
        Activation act;
        Aggregation agg;
    };

    /** One lane's slice of the flat arrays and the value arena. */
    struct LaneProgram
    {
        uint32_t segBegin;
        uint32_t segEnd;
        uint32_t valueBase; ///< arena offset of this lane's slots
        uint32_t slotCount;
        uint32_t outBase; ///< offset into outputSlots
    };

    size_t numInputs = 0;
    size_t numOutputs = 0;
    size_t arenaSize = 0; ///< total value-arena slots, all lanes
    std::vector<Op> ops;
    std::vector<NodeRun> nodes;
    std::vector<Segment> segments;
    std::vector<uint32_t> outputSlots; ///< lane-local output slots
    std::vector<LaneProgram> lanes;
};

/**
 * Cheap structural soundness check over a compiled plan — the
 * invariants listed on BatchPlan, as one Status (first violation
 * wins). The compile paths assert this in debug builds; the full
 * diagnostic version with stable rule IDs is
 * verify::verifyBatchPlan().
 */
Status checkPlanInvariants(const BatchPlan &plan);

/**
 * SoA batch engine for plain feed-forward networks. Compile once per
 * generation (or once per champion, replicated), then activate with no
 * allocation: the per-lane programs are flat arrays of ops, node runs
 * and (activation, aggregation) segments over one contiguous value
 * arena.
 */
class BatchEvaluator : public BatchNetwork
{
  public:
    /**
     * Compile one program per definition (a population). All defs must
     * share input/output arity; options must be plain feed-forward
     * (no recurrence, no quantization — use the adapter for those).
     * Each def is analyzed once; when @p stats is given it receives
     * every def's NetStats from that same analysis, in defs order.
     */
    static Result<std::unique_ptr<BatchEvaluator>>
    compile(const std::vector<NetworkDef> &defs,
            const NetworkCompileOptions &options = {},
            std::vector<NetStats> *stats = nullptr);

    /**
     * Compile one definition shared by @p lanes value lanes — the
     * serve-side shape, where coalesced same-champion requests land in
     * one activateBatch() call.
     */
    static Result<std::unique_ptr<BatchEvaluator>>
    compileReplicated(const NetworkDef &def, size_t lanes,
                      const NetworkCompileOptions &options = {});

    void activateBatch(size_t count, const double *inputs,
                       size_t inputStride, double *outputs,
                       size_t outputStride) override;

    void activateLane(size_t lane, const double *inputs,
                      double *outputs) override;

    void reset() override;

    size_t lanes() const override { return plan_.lanes.size(); }
    size_t numInputs() const override { return plan_.numInputs; }
    size_t numOutputs() const override { return plan_.numOutputs; }

    /**
     * Distinct compiled ops across all lane programs. Replicated
     * lanes share one program, so a full-batch activation performs
     * totalOps() MACs for a population compile and lanes() *
     * totalOps() for a replicated one.
     */
    uint64_t totalOps() const { return plan_.ops.size(); }

    /** The compiled plan (the verifier's view of this engine). */
    const BatchPlan *plan() const override { return &plan_; }

  private:
    BatchEvaluator() = default;

    /** Emit one analyzed definition into the SoA arrays as a lane. */
    void appendLane(const NetworkDef &def, const DefAnalysis &analysis);

    /**
     * The compiled program. Op is kept as an {slot, weight} pair (one
     * sequential 16-byte stream) rather than split parallel arrays —
     * measured head-to-head on the target, the single-stream layout
     * is faster at population 128 and no worse at 256.
     */
    BatchPlan plan_;
    std::vector<double> values_; ///< contiguous per-lane value arena
};

/**
 * Loop-over-Network adapter: the same BatchNetwork contract backed by
 * one compiled Network per lane, so recurrent and quantized options
 * (and any future Network implementation) keep working behind the
 * batch-first API.
 */
class NetworkBatchAdapter : public BatchNetwork
{
  public:
    /** Wrap pre-compiled networks; all must share arity. */
    static Result<std::unique_ptr<NetworkBatchAdapter>>
    create(std::vector<std::unique_ptr<Network>> nets);

    void activateBatch(size_t count, const double *inputs,
                       size_t inputStride, double *outputs,
                       size_t outputStride) override;

    void activateLane(size_t lane, const double *inputs,
                      double *outputs) override;

    void reset() override;

    size_t lanes() const override { return nets_.size(); }
    size_t numInputs() const override { return numInputs_; }
    size_t numOutputs() const override { return numOutputs_; }

    /** The lane's underlying network (tests, replay introspection). */
    Network &lane(size_t i) { return *nets_[i]; }

  private:
    explicit NetworkBatchAdapter(
        std::vector<std::unique_ptr<Network>> nets);

    size_t numInputs_ = 0;
    size_t numOutputs_ = 0;
    std::vector<std::unique_ptr<Network>> nets_;
};

/** Engine selection for the population-compile entry points. */
enum class BatchEngine
{
    Auto,      ///< SoA when the options allow it, adapter otherwise
    Soa,       ///< force the SoA engine (error on unsupported options)
    PerGenome, ///< force the loop-over-Network adapter
};

/**
 * The one population-compile entry point: turn a population of
 * definitions into a BatchNetwork. Both the platform's evaluation
 * path and serve go through here, so the batch engine can intercept
 * whole populations regardless of caller. When @p stats is given it
 * receives every def's NetStats, in defs order; the SoA engine reads
 * them off the analysis it compiles from.
 */
Result<std::unique_ptr<BatchNetwork>>
compilePopulation(const std::vector<NetworkDef> &defs,
                  const NetworkCompileOptions &options = {},
                  BatchEngine engine = BatchEngine::Auto,
                  std::vector<NetStats> *stats = nullptr);

/** Same, for one definition replicated across @p lanes lanes. */
Result<std::unique_ptr<BatchNetwork>>
compileReplicated(const NetworkDef &def, size_t lanes,
                  const NetworkCompileOptions &options = {},
                  BatchEngine engine = BatchEngine::Auto);

} // namespace e3

#endif // E3_NN_BATCH_EVAL_HH
