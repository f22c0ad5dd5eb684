#include "nn/batch_eval.hh"

#include <algorithm>

#include "common/hot.hh"
#include "common/logging.hh"
#include "nn/layering.hh"

namespace e3 {

namespace {

/** Arity check shared by both engines' compile paths. */
Status
checkLaneArity(size_t lane, size_t numInputs, size_t numOutputs,
               size_t expectedInputs, size_t expectedOutputs)
{
    if (numInputs != expectedInputs || numOutputs != expectedOutputs) {
        return Status::error(
            "batch lane ", lane, " has arity ", numInputs, "x",
            numOutputs, " but the batch is ", expectedInputs, "x",
            expectedOutputs,
            " (all lanes must share input/output arity)");
    }
    return Status();
}

} // namespace

namespace detail {

/**
 * Sum-segment kernel with the activation hoisted to a template
 * parameter: each node's fold is a seeded multiply-add chain — the
 * exact operation sequence Aggregator performs (seed from the first
 * element, add the rest, 0.0 when empty) — with the activation inlined
 * via applyActivationT, so a node costs no out-of-line call.
 *
 * The kernel is noinline and aligned to a fixed boundary: the op-fold
 * loop's branches are hot enough that their placement relative to
 * fetch/predictor boundaries measurably changes throughput, and
 * keeping the kernel at a fixed alignment makes that placement (and
 * so the measured speedup) independent of whatever else is linked
 * into the binary.
 *
 * The node/op types stay template parameters (deduced at the call
 * site), which keeps the kernel's instantiation independent of the
 * plan type's header.
 */
template <Activation A, typename NodeRunT, typename OpT>
__attribute__((noinline, aligned(256))) void
runSumSegment(const NodeRunT *nodes, uint32_t nodeBegin,
              uint32_t nodeEnd, const OpT *ops, double *v)
{
    for (uint32_t n = nodeBegin; n != nodeEnd; ++n) {
        const NodeRunT &node = nodes[n];
        const OpT *op = ops + node.opBegin;
        const OpT *const end = ops + node.opEnd;
        double acc = 0.0;
        if (op != end) {
            acc = v[op->srcSlot] * op->weight;
            for (++op; op != end; ++op)
                acc += v[op->srcSlot] * op->weight;
        }
        v[node.dstSlot] = applyActivationT<A>(acc + node.bias);
    }
}

} // namespace detail

Status
checkPlanInvariants(const BatchPlan &plan)
{
    if (plan.lanes.empty())
        return Status::error("plan has no lanes");
    for (size_t li = 0; li < plan.lanes.size(); ++li) {
        const BatchPlan::LaneProgram &lane = plan.lanes[li];
        if (lane.segBegin > lane.segEnd ||
            lane.segEnd > plan.segments.size())
            return Status::error("lane ", li, ": segment range [",
                                 lane.segBegin, ", ", lane.segEnd,
                                 ") outside ", plan.segments.size(),
                                 " segments");
        if (static_cast<uint64_t>(lane.valueBase) + lane.slotCount >
            plan.arenaSize)
            return Status::error("lane ", li, ": arena region [",
                                 lane.valueBase, ", ",
                                 lane.valueBase + lane.slotCount,
                                 ") outside arena of ", plan.arenaSize,
                                 " slots");
        if (plan.numInputs > lane.slotCount)
            return Status::error("lane ", li, ": ", plan.numInputs,
                                 " inputs but only ", lane.slotCount,
                                 " slots");
        if (static_cast<uint64_t>(lane.outBase) + plan.numOutputs >
            plan.outputSlots.size())
            return Status::error("lane ", li,
                                 ": output map outside the ",
                                 plan.outputSlots.size(),
                                 "-entry slot table");

        // Segments must tile the lane's node list back to back.
        uint32_t expectNode = lane.segBegin < lane.segEnd
                                  ? plan.segments[lane.segBegin].nodeBegin
                                  : 0;
        for (uint32_t s = lane.segBegin; s != lane.segEnd; ++s) {
            const BatchPlan::Segment &seg = plan.segments[s];
            if (seg.nodeBegin >= seg.nodeEnd ||
                seg.nodeEnd > plan.nodes.size())
                return Status::error("lane ", li, " segment ", s,
                                     ": node range [", seg.nodeBegin,
                                     ", ", seg.nodeEnd, ") invalid");
            if (seg.nodeBegin != expectNode)
                return Status::error(
                    "lane ", li, " segment ", s, ": starts at node ",
                    seg.nodeBegin, ", expected ", expectNode,
                    " (segments must partition the node list)");
            expectNode = seg.nodeEnd;
            if (static_cast<int>(seg.act) < 0 ||
                static_cast<int>(seg.act) >= kActivationCount)
                return Status::error("lane ", li, " segment ", s,
                                     ": unknown activation ",
                                     static_cast<int>(seg.act));
            if (static_cast<int>(seg.agg) < 0 ||
                static_cast<int>(seg.agg) >= kAggregationCount)
                return Status::error("lane ", li, " segment ", s,
                                     ": unknown aggregation ",
                                     static_cast<int>(seg.agg));
            for (uint32_t n = seg.nodeBegin; n != seg.nodeEnd; ++n) {
                const BatchPlan::NodeRun &node = plan.nodes[n];
                if (node.opBegin > node.opEnd ||
                    node.opEnd > plan.ops.size())
                    return Status::error("node ", n, ": op range [",
                                         node.opBegin, ", ",
                                         node.opEnd, ") outside ",
                                         plan.ops.size(), " ops");
                if (node.dstSlot >= lane.slotCount)
                    return Status::error("node ", n, ": dstSlot ",
                                         node.dstSlot, " outside ",
                                         lane.slotCount,
                                         " lane slots");
                for (uint32_t o = node.opBegin; o != node.opEnd; ++o) {
                    if (plan.ops[o].srcSlot >= lane.slotCount)
                        return Status::error(
                            "node ", n, " op ", o, ": srcSlot ",
                            plan.ops[o].srcSlot, " outside ",
                            lane.slotCount, " lane slots");
                }
            }
        }

        // Output map: distinct, in-range slots.
        for (size_t a = 0; a < plan.numOutputs; ++a) {
            const uint32_t slot = plan.outputSlots[lane.outBase + a];
            if (slot >= lane.slotCount)
                return Status::error("lane ", li, " output ", a,
                                     ": slot ", slot, " outside ",
                                     lane.slotCount, " lane slots");
            for (size_t b = a + 1; b < plan.numOutputs; ++b) {
                if (plan.outputSlots[lane.outBase + b] == slot)
                    return Status::error(
                        "lane ", li, ": outputs ", a, " and ", b,
                        " both read slot ", slot,
                        " (output map must be injective)");
            }
        }
    }

    // Arena regions must be pairwise disjoint across lanes.
    std::vector<std::pair<uint64_t, uint64_t>> regions;
    regions.reserve(plan.lanes.size());
    for (const BatchPlan::LaneProgram &lane : plan.lanes)
        regions.emplace_back(lane.valueBase,
                             static_cast<uint64_t>(lane.valueBase) +
                                 lane.slotCount);
    std::sort(regions.begin(), regions.end());
    for (size_t i = 1; i < regions.size(); ++i) {
        if (regions[i].first < regions[i - 1].second)
            return Status::error("lane arena regions [",
                                 regions[i - 1].first, ", ",
                                 regions[i - 1].second, ") and [",
                                 regions[i].first, ", ",
                                 regions[i].second, ") overlap");
    }
    return Status();
}

Result<std::unique_ptr<BatchEvaluator>>
BatchEvaluator::compile(const std::vector<NetworkDef> &defs,
                        const NetworkCompileOptions &options,
                        std::vector<NetStats> *stats)
{
    if (defs.empty())
        return Status::error(
            "batch compile needs at least one definition");
    if (options.recurrent || options.quantization) {
        return Status::error(
            "the SoA batch evaluator supports plain feed-forward "
            "networks; use the loop adapter for recurrent or "
            "quantized evaluation");
    }

    BatchPlan plan;
    plan.numInputs = defs.front().inputIds.size();
    plan.numOutputs = defs.front().outputIds.size();
    if (stats) {
        stats->clear();
        stats->reserve(defs.size());
    }

    for (size_t i = 0; i < defs.size(); ++i) {
        const DefAnalysis &analysis = analyzeDef(defs[i]);
        if (Status invariants = checkDefInvariants(analysis);
            !invariants.ok()) {
            return Status::error("genome ", i, ": malformed NetworkDef: ",
                                 invariants.message());
        }
        if (Status arity = checkLaneArity(
                i, defs[i].inputIds.size(), defs[i].outputIds.size(),
                plan.numInputs, plan.numOutputs);
            !arity.ok())
            return arity;
        appendLane(plan, defs[i], analysis, analysis.order,
                   analysis.slot);
        if (stats)
            stats->push_back(netStatsOf(defs[i], analysis));
    }
    return fromPlan(std::move(plan));
}

Result<std::unique_ptr<BatchEvaluator>>
BatchEvaluator::compileReplicated(const NetworkDef &def, size_t lanes,
                                  const NetworkCompileOptions &options)
{
    if (lanes == 0)
        return Status::error("replicated batch needs at least one lane");
    if (options.recurrent || options.quantization) {
        return Status::error(
            "the SoA batch evaluator supports plain feed-forward "
            "networks; use the loop adapter for recurrent or "
            "quantized evaluation");
    }
    const DefAnalysis &analysis = analyzeDef(def);
    if (Status invariants = checkDefInvariants(analysis);
        !invariants.ok())
        return Status::error("malformed NetworkDef: ",
                             invariants.message());

    // One shared program; each further lane is just a fresh region of
    // the value arena (the output-slot table is lane-local, so it is
    // shared too).
    BatchPlan plan = feedForwardPlan(def, analysis);
    const BatchPlan::LaneProgram proto = plan.lanes.front();
    for (size_t lane = 1; lane < lanes; ++lane) {
        BatchPlan::LaneProgram p = proto;
        p.valueBase = static_cast<uint32_t>(lane) * proto.slotCount;
        plan.lanes.push_back(p);
    }
    plan.arenaSize = static_cast<size_t>(proto.slotCount) * lanes;
    return fromPlan(std::move(plan));
}

std::unique_ptr<BatchEvaluator>
BatchEvaluator::fromPlan(BatchPlan plan)
{
#ifndef NDEBUG
    if (Status sound = checkPlanInvariants(plan); !sound.ok())
        e3_panic("batch plan failed its invariant check: ",
                 sound.message());
#endif
    auto eval = std::unique_ptr<BatchEvaluator>(new BatchEvaluator());
    eval->values_.assign(plan.arenaSize, 0.0);
    eval->plan_ = std::move(plan);
    return eval;
}

void
appendLane(BatchPlan &plan, const NetworkDef &def, const DefAnalysis &a,
           const std::vector<uint32_t> &nodes,
           const std::vector<uint32_t> &slots)
{
    BatchPlan::LaneProgram p;
    p.segBegin = static_cast<uint32_t>(plan.segments.size());
    p.valueBase = static_cast<uint32_t>(plan.arenaSize);
    p.slotCount = static_cast<uint32_t>(def.inputIds.size() + nodes.size());
    p.outBase = static_cast<uint32_t>(plan.outputSlots.size());

    // Segments merge across layer boundaries when (act, agg) carries
    // over: the kernels execute in-segment nodes strictly in order, so
    // a later-layer node reading an earlier node's destination slot is
    // fine, and a uniform-activation lane collapses to one dispatch.
    for (uint32_t v : nodes) {
        e3_assert(a.nodeAt[v] != DefAnalysis::kNone,
                  "connection references unknown node ", a.ids[v]);
        const NetworkDef::Node &node = def.nodes[a.nodeAt[v]];
        const bool openNewSegment =
            plan.segments.size() == p.segBegin ||
            plan.segments.back().act != node.act ||
            plan.segments.back().agg != node.agg;
        if (openNewSegment) {
            plan.segments.push_back(
                {static_cast<uint32_t>(plan.nodes.size()),
                 static_cast<uint32_t>(plan.nodes.size()), node.act,
                 node.agg});
        }
        BatchPlan::NodeRun run;
        run.dstSlot = slots[v];
        run.opBegin = static_cast<uint32_t>(plan.ops.size());
        a.forEachActiveIngress(v, [&](uint32_t c) {
            plan.ops.push_back({slots[a.connFrom[c]], def.conns[c].weight});
        });
        run.opEnd = static_cast<uint32_t>(plan.ops.size());
        run.bias = node.bias;
        plan.nodes.push_back(run);
        plan.segments.back().nodeEnd =
            static_cast<uint32_t>(plan.nodes.size());
    }
    p.segEnd = static_cast<uint32_t>(plan.segments.size());

    for (int id : def.outputIds)
        plan.outputSlots.push_back(slots[a.indexOf(id)]);

    plan.lanes.push_back(p);
    plan.arenaSize += p.slotCount;
}

BatchPlan
feedForwardPlan(const NetworkDef &def, const DefAnalysis &analysis)
{
    BatchPlan plan;
    plan.numInputs = def.inputIds.size();
    plan.numOutputs = def.outputIds.size();
    appendLane(plan, def, analysis, analysis.order, analysis.slot);
    return plan;
}

E3_HOT void
BatchEvaluator::activateBatch(size_t count, const double *inputs,
                              size_t inputStride, double *outputs,
                              size_t outputStride)
{
    e3_assert(count <= plan_.lanes.size(), "batch count ", count,
              " exceeds ", plan_.lanes.size(), " lanes");
    // Qualified call: no per-lane virtual dispatch on the hot path.
    for (size_t lane = 0; lane < count; ++lane) {
        BatchEvaluator::activateLane(lane, inputs + lane * inputStride,
                                     outputs + lane * outputStride);
    }
}

E3_HOT void
BatchEvaluator::activateLane(size_t lane, const double *inputs,
                             double *outputs)
{
    const BatchPlan::LaneProgram &p = plan_.lanes[lane];
    double *v = values_.data() + p.valueBase;
    for (size_t i = 0; i < plan_.numInputs; ++i)
        v[i] = inputs[i];

    const BatchPlan::NodeRun *const nodes = plan_.nodes.data();
    const BatchPlan::Op *const ops = plan_.ops.data();
    for (uint32_t s = p.segBegin; s != p.segEnd; ++s) {
        const BatchPlan::Segment seg = plan_.segments[s];
        if (seg.agg == Aggregation::Sum) {
            // Fast path for the dominant aggregation: one activation
            // dispatch per *segment*, then a call-free inner loop
            // (see detail::runSumSegment).
            switch (seg.act) {
              case Activation::Sigmoid:
                detail::runSumSegment<Activation::Sigmoid>(
                    nodes, seg.nodeBegin, seg.nodeEnd, ops, v);
                break;
              case Activation::Tanh:
                detail::runSumSegment<Activation::Tanh>(
                    nodes, seg.nodeBegin, seg.nodeEnd, ops, v);
                break;
              case Activation::ReLU:
                detail::runSumSegment<Activation::ReLU>(
                    nodes, seg.nodeBegin, seg.nodeEnd, ops, v);
                break;
              case Activation::Identity:
                detail::runSumSegment<Activation::Identity>(
                    nodes, seg.nodeBegin, seg.nodeEnd, ops, v);
                break;
              case Activation::Sin:
                detail::runSumSegment<Activation::Sin>(
                    nodes, seg.nodeBegin, seg.nodeEnd, ops, v);
                break;
              case Activation::Gauss:
                detail::runSumSegment<Activation::Gauss>(
                    nodes, seg.nodeBegin, seg.nodeEnd, ops, v);
                break;
              case Activation::Abs:
                detail::runSumSegment<Activation::Abs>(
                    nodes, seg.nodeBegin, seg.nodeEnd, ops, v);
                break;
              case Activation::Clamped:
                detail::runSumSegment<Activation::Clamped>(
                    nodes, seg.nodeBegin, seg.nodeEnd, ops, v);
                break;
            }
        } else {
            for (uint32_t n = seg.nodeBegin; n != seg.nodeEnd; ++n) {
                const BatchPlan::NodeRun &node = nodes[n];
                Aggregator agg(seg.agg);
                for (const BatchPlan::Op *op = ops + node.opBegin;
                     op != ops + node.opEnd; ++op)
                    agg.add(v[op->srcSlot] * op->weight);
                v[node.dstSlot] =
                    applyActivation(seg.act, agg.result() + node.bias);
            }
        }
    }

    const uint32_t *const outSlots =
        plan_.outputSlots.data() + p.outBase;
    for (size_t o = 0; o < plan_.numOutputs; ++o)
        outputs[o] = v[outSlots[o]];
}

void
BatchEvaluator::reset()
{
    std::fill(values_.begin(), values_.end(), 0.0);
}

Result<std::unique_ptr<NetworkBatchAdapter>>
NetworkBatchAdapter::create(std::vector<std::unique_ptr<Network>> nets)
{
    if (nets.empty())
        return Status::error("batch adapter needs at least one network");
    for (size_t i = 0; i < nets.size(); ++i) {
        if (!nets[i])
            return Status::error("batch adapter lane ", i, " is null");
        if (Status arity = checkLaneArity(
                i, nets[i]->numInputs(), nets[i]->numOutputs(),
                nets.front()->numInputs(), nets.front()->numOutputs());
            !arity.ok())
            return arity;
    }
    return std::unique_ptr<NetworkBatchAdapter>(
        new NetworkBatchAdapter(std::move(nets)));
}

NetworkBatchAdapter::NetworkBatchAdapter(
    std::vector<std::unique_ptr<Network>> nets)
    : numInputs_(nets.front()->numInputs()),
      numOutputs_(nets.front()->numOutputs()), nets_(std::move(nets))
{
}

E3_HOT void
NetworkBatchAdapter::activateBatch(size_t count, const double *inputs,
                                   size_t inputStride, double *outputs,
                                   size_t outputStride)
{
    e3_assert(count <= nets_.size(), "batch count ", count,
              " exceeds ", nets_.size(), " lanes");
    for (size_t lane = 0; lane < count; ++lane) {
        nets_[lane]->activateInto(inputs + lane * inputStride,
                                  outputs + lane * outputStride);
    }
}

E3_HOT void
NetworkBatchAdapter::activateLane(size_t lane, const double *inputs,
                                  double *outputs)
{
    nets_[lane]->activateInto(inputs, outputs);
}

void
NetworkBatchAdapter::reset()
{
    for (auto &net : nets_)
        net->reset();
}

Result<std::unique_ptr<BatchNetwork>>
compilePopulation(const std::vector<NetworkDef> &defs,
                  const NetworkCompileOptions &options,
                  BatchEngine engine, std::vector<NetStats> *stats)
{
    const bool soaCapable = !options.recurrent && !options.quantization;
    if (engine == BatchEngine::Soa && !soaCapable) {
        return Status::error(
            "the SoA engine requires plain feed-forward compilation "
            "options");
    }
    if (engine != BatchEngine::PerGenome && soaCapable) {
        auto soa = BatchEvaluator::compile(defs, options, stats);
        if (!soa.ok())
            return soa.status();
        return std::unique_ptr<BatchNetwork>(std::move(soa.value()));
    }

    if (stats) {
        stats->clear();
        for (const auto &def : defs)
            stats->push_back(computeNetStats(def));
    }
    std::vector<std::unique_ptr<Network>> nets;
    nets.reserve(defs.size());
    for (const auto &def : defs) {
        auto net = compileNetwork(def, options);
        if (!net.ok())
            return Status::error("genome ", nets.size(), ": ",
                                 net.message());
        nets.push_back(std::move(net.value()));
    }
    auto adapter = NetworkBatchAdapter::create(std::move(nets));
    if (!adapter.ok())
        return adapter.status();
    return std::unique_ptr<BatchNetwork>(std::move(adapter.value()));
}

Result<std::unique_ptr<BatchNetwork>>
compileReplicated(const NetworkDef &def, size_t lanes,
                  const NetworkCompileOptions &options,
                  BatchEngine engine)
{
    const bool soaCapable = !options.recurrent && !options.quantization;
    if (engine == BatchEngine::Soa && !soaCapable) {
        return Status::error(
            "the SoA engine requires plain feed-forward compilation "
            "options");
    }
    if (engine != BatchEngine::PerGenome && soaCapable) {
        auto soa = BatchEvaluator::compileReplicated(def, lanes, options);
        if (!soa.ok())
            return soa.status();
        return std::unique_ptr<BatchNetwork>(std::move(soa.value()));
    }

    std::vector<std::unique_ptr<Network>> nets;
    nets.reserve(lanes);
    for (size_t lane = 0; lane < lanes; ++lane) {
        auto net = compileNetwork(def, options);
        if (!net.ok())
            return net.status();
        nets.push_back(std::move(net.value()));
    }
    auto adapter = NetworkBatchAdapter::create(std::move(nets));
    if (!adapter.ok())
        return adapter.status();
    return std::unique_ptr<BatchNetwork>(std::move(adapter.value()));
}

} // namespace e3
