/**
 * @file
 * Population-at-a-time batched inference: the one inference engine.
 *
 * BatchNetwork holds N lanes, each an independent network instance —
 * one genome of a population, or N replicas of one champion for
 * request batching (Network is its one-lane view). The whole
 * population is compiled once into flat computation lists (the
 * burds-style (srcSlot, dstSlot, weight) triples, factored as per-node
 * op runs so the destination slot is not repeated per edge), sorted at
 * compile time into execution order and grouped into segments of
 * consecutive nodes sharing (activation, aggregation) so the inner
 * loops are tight folds with zero per-step allocation. Values live in
 * one contiguous arena with a disjoint region per lane, which is what
 * makes activateLane() safe to call concurrently for distinct lanes.
 *
 * Value modes, fixed at compile time by NetworkCompileOptions (like
 * INAX's one PE datapath: a wide-accumulator MAC and fixed-point value
 * storage):
 *  - float: feed-forward in double precision;
 *  - quantized: inputs and every activated node value are quantized as
 *    they are stored, over quantizeDef's weights and biases; the MAC
 *    accumulates at full precision (a wide DSP accumulator);
 *  - recurrent: one synchronous tick per activation — every node reads
 *    the previous tick's values (inputs are visible at once) from one
 *    arena region per lane and writes the next tick into a second.
 * The mode lives in the engine, not the plan, so a quantized or
 * recurrent plan has the same text form and E3V301–E3V305 checks.
 *
 * Fold-order guarantee: per genome, feed-forward nodes execute in the
 * analysis's dependency order (layer order, ids ascending within a
 * layer) and each node folds its active ingress ops in def order,
 * seeding the accumulator from the first element like Aggregator does.
 * Results are therefore bit-identical to the verifier's layered
 * per-genome evaluator (verify::ReferenceNetwork) at any batch size and
 * thread count, keeping RngAudit digests and src/verify interval
 * bounds valid unchanged.
 */

#ifndef E3_NN_BATCH_EVAL_HH
#define E3_NN_BATCH_EVAL_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.hh"
#include "nn/compile.hh"
#include "nn/net_stats.hh"
#include "nn/network.hh"

namespace e3 {

/**
 * The compiled form of a batch: flat structure-of-arrays computation
 * lists over one contiguous value arena. This is BatchNetwork's
 * entire execution state except the arena values and the value mode,
 * exposed as plain data so the src/verify batch-plan pass
 * (E3V301–E3V306) can check a compiled population without reaching
 * into the engine — and so a plan can be serialized, corrupted on
 * purpose and re-verified in fixtures.
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

    /** Call @p f(segment, node) per node of @p lane, execution order. */
    template <typename F>
    void
    forEachNode(size_t lane, F &&f) const
    {
        for (uint32_t s = lanes[lane].segBegin; s != lanes[lane].segEnd;
             ++s) {
            for (uint32_t n = segments[s].nodeBegin;
                 n != segments[s].nodeEnd; ++n)
                f(segments[s], nodes[n]);
        }
    }

    /** The fold steps of @p node, in fold order. */
    std::span<const Op>
    opsOf(const NodeRun &node) const
    {
        return {ops.data() + node.opBegin, ops.data() + node.opEnd};
    }
};

struct DefAnalysis;

/**
 * The one-lane plan of a definition from its analysis, laid out for
 * the value mode @p mode selects (a quantized plan folds quantizeDef's
 * parameters; a recurrent one runs its nodes in id order).
 */
BatchPlan lanePlan(const NetworkDef &def, const DefAnalysis &analysis,
                   const NetworkCompileOptions &mode = {});

/**
 * Cheap structural soundness check over a compiled plan — the
 * invariants listed on BatchPlan, as one Status (first violation
 * wins). The compile paths assert this in debug builds; the full
 * diagnostic version with stable rule IDs is
 * verify::verifyBatchPlan().
 */
Status checkPlanInvariants(const BatchPlan &plan);

/**
 * The batch engine. Compile once per generation (or once per champion,
 * replicated) through compilePopulation()/compileReplicated(), then
 * activate with no allocation.
 *
 * Contract: lane i reads numInputs() doubles at inputs + i*inputStride
 * and writes numOutputs() doubles at outputs + i*outputStride;
 * activateLane() is safe to call concurrently for *distinct* lanes
 * (ParallelEval lanes run out of lockstep).
 */
class BatchNetwork
{
  public:
    /** Evaluate lanes [0, count) from strided rows; count <= lanes(). */
    void activateBatch(size_t count, const double *inputs,
                       size_t inputStride, double *outputs,
                       size_t outputStride);

    /** Evaluate one lane; thread-safe across distinct lanes. */
    void activateLane(size_t lane, const double *inputs,
                      double *outputs);

    /** Zero every lane's state. */
    void reset();

    /**
     * Zero one lane's state — a recurrent lane's previous tick — before
     * an episode; thread-safe across distinct lanes.
     */
    void resetLane(size_t lane);

    size_t lanes() const { return plan_.lanes.size(); }
    size_t numInputs() const { return plan_.numInputs; }
    size_t numOutputs() const { return plan_.numOutputs; }

    /**
     * Distinct compiled ops across all lane programs. Replicated
     * lanes share one program, so a full-batch activation performs
     * totalOps() MACs for a population compile and lanes() *
     * totalOps() for a replicated one.
     */
    uint64_t totalOps() const { return plan_.ops.size(); }

    /** The compiled plan (the verifier's view of this engine). */
    const BatchPlan &plan() const { return plan_; }

  private:
    friend class Network;
    friend Result<std::unique_ptr<BatchNetwork>>
    compilePopulation(const std::vector<NetworkDef> &defs,
                      const NetworkCompileOptions &options,
                      std::vector<NetStats> *stats);
    friend Result<std::unique_ptr<BatchNetwork>>
    compileReplicated(const NetworkDef &def, size_t lanes,
                      const NetworkCompileOptions &options);

    /** An engine running @p plan in @p mode over a zeroed arena. */
    BatchNetwork(BatchPlan plan, const NetworkCompileOptions &mode);

    /** activateLane with quantize-on-store fixed at compile time. */
    template <bool Quantize>
    void runLane(size_t lane, const double *inputs, double *outputs);

    /**
     * The compiled program. Op is kept as an {slot, weight} pair (one
     * sequential 16-byte stream) rather than split parallel arrays —
     * measured head-to-head on the target, the single-stream layout
     * is faster at population 128 and no worse at 256.
     */
    BatchPlan plan_;
    NetworkCompileOptions mode_; ///< the value mode
    /**
     * Contiguous per-lane value arena; a recurrent engine keeps the
     * next tick's regions in a second arena behind the first.
     */
    std::vector<double> values_;
};

/**
 * The one population-compile entry point: turn a population of
 * definitions into a BatchNetwork in the value mode @p options selects.
 * The platform's evaluation path, serve and the tools all go through
 * here. All defs must share input/output arity; a malformed def
 * (checkDefInvariants) is an error naming its genome index. Each def
 * is analyzed once; when @p stats is given it receives every def's
 * NetStats from that same analysis, in defs order.
 */
Result<std::unique_ptr<BatchNetwork>>
compilePopulation(const std::vector<NetworkDef> &defs,
                  const NetworkCompileOptions &options = {},
                  std::vector<NetStats> *stats = nullptr);

/**
 * One definition shared by @p lanes value lanes — the serve-side shape,
 * where queued same-champion requests land in one activateBatch()
 * call. The lanes share one program.
 */
Result<std::unique_ptr<BatchNetwork>>
compileReplicated(const NetworkDef &def, size_t lanes,
                  const NetworkCompileOptions &options = {});

/**
 * Engine names kept only so hostbench's traced driver compiles, like
 * batchedFunctionalInference(): there is one engine, and both
 * enumerators select it. Goes once that driver runs on
 * E3Platform::run.
 */
enum class BatchEngine
{
    Auto,
    PerGenome,
};

/** compilePopulation(defs, options); @p engine is ignored. */
Result<std::unique_ptr<BatchNetwork>>
compilePopulation(const std::vector<NetworkDef> &defs,
                  const NetworkCompileOptions &options,
                  BatchEngine engine);

} // namespace e3

#endif // E3_NN_BATCH_EVAL_HH
