#include "nn/batch_eval.hh"

#include <algorithm>

#include "common/hot.hh"
#include "common/logging.hh"
#include "nn/layering.hh"

namespace e3 {

namespace detail {

/** The value an input or node stores: rounded in the quantized mode. */
template <bool Quantize>
inline double
storedValue(double v, const FixedPointFormat *format)
{
    if constexpr (Quantize)
        return format->quantize(v);
    else
        return v;
}

/**
 * Sum-segment kernel with the activation hoisted to a template
 * parameter: each node's fold is a seeded multiply-add chain — the
 * exact operation sequence Aggregator performs (seed from the first
 * element, add the rest, 0.0 when empty) — with the activation inlined
 * via applyActivationT, so a node costs no out-of-line call. Nodes
 * read @p src and write @p dst, which are one region except in the
 * recurrent mode (src is the previous tick); Quantize rounds each
 * activated value as it is stored.
 *
 * The kernel is noinline and aligned to a fixed boundary: the op-fold
 * loop's branches are hot enough that their placement relative to
 * fetch/predictor boundaries measurably changes throughput, and
 * keeping the kernel at a fixed alignment (and, through the file's
 * -falign-loops, its inner loop too) makes that placement (and so the
 * measured speedup) independent of whatever else is linked into the
 * binary.
 *
 * The node/op types stay template parameters (deduced at the call
 * site), which keeps the kernel's instantiation independent of the
 * plan type's header.
 */
template <Activation A, bool Quantize, typename NodeRunT, typename OpT>
__attribute__((noinline, aligned(256))) void
runSumSegment(const NodeRunT *nodes, uint32_t nodeBegin,
              uint32_t nodeEnd, const OpT *ops, const double *src,
              double *dst, const FixedPointFormat *format)
{
    for (uint32_t n = nodeBegin; n != nodeEnd; ++n) {
        const NodeRunT &node = nodes[n];
        const OpT *op = ops + node.opBegin;
        const OpT *const end = ops + node.opEnd;
        double acc = 0.0;
        if (op != end) {
            acc = src[op->srcSlot] * op->weight;
            for (++op; op != end; ++op)
                acc += src[op->srcSlot] * op->weight;
        }
        dst[node.dstSlot] = storedValue<Quantize>(
            applyActivationT<A>(acc + node.bias), format);
    }
}

} // namespace detail

namespace {

/**
 * The one lane emitter: append @p def to @p plan as a lane at the
 * arena's end, laid out for @p mode. Feed-forward lanes run the
 * analysis's dependency order; recurrent lanes run every required node
 * in id order, inputs first (a tick has no intra-tick dependencies);
 * quantized lanes fold quantizeDef's weights and biases. Each node
 * folds its active ingress in def order. Panics on an undefined node.
 */
void
appendLane(BatchPlan &plan, const NetworkDef &def, const DefAnalysis &a,
           const NetworkCompileOptions &mode)
{
    const std::vector<uint32_t> *nodes = &a.order;
    const std::vector<uint32_t> *slots = &a.slot;
    std::vector<uint32_t> idOrder, idSlots;
    if (mode.recurrent) {
        idSlots = a.slot;
        for (uint32_t i = 0; i < a.ids.size(); ++i) {
            if (a.has(i, DefAnalysis::kRequired)) {
                idSlots[i] = static_cast<uint32_t>(def.inputIds.size() +
                                                   idOrder.size());
                idOrder.push_back(i);
            }
        }
        nodes = &idOrder;
        slots = &idSlots;
    }
    const auto param = [&mode](double v) {
        return mode.quantization ? mode.quantization->quantize(v) : v;
    };

    BatchPlan::LaneProgram p;
    p.segBegin = static_cast<uint32_t>(plan.segments.size());
    p.valueBase = static_cast<uint32_t>(plan.arenaSize);
    p.slotCount =
        static_cast<uint32_t>(def.inputIds.size() + nodes->size());
    p.outBase = static_cast<uint32_t>(plan.outputSlots.size());

    // Segments merge across layer boundaries when (act, agg) carries
    // over: the kernels execute in-segment nodes strictly in order, so
    // a later-layer node reading an earlier node's destination slot is
    // fine, and a uniform-activation lane collapses to one dispatch.
    for (uint32_t v : *nodes) {
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
        run.dstSlot = (*slots)[v];
        run.opBegin = static_cast<uint32_t>(plan.ops.size());
        a.forEachActiveIngress(v, [&](uint32_t c) {
            plan.ops.push_back(
                {(*slots)[a.connFrom[c]], param(def.conns[c].weight)});
        });
        run.opEnd = static_cast<uint32_t>(plan.ops.size());
        run.bias = param(node.bias);
        plan.nodes.push_back(run);
        plan.segments.back().nodeEnd =
            static_cast<uint32_t>(plan.nodes.size());
    }
    p.segEnd = static_cast<uint32_t>(plan.segments.size());

    for (int id : def.outputIds)
        plan.outputSlots.push_back((*slots)[a.indexOf(id)]);

    plan.lanes.push_back(p);
    plan.arenaSize += p.slotCount;
}

} // namespace

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

BatchPlan
lanePlan(const NetworkDef &def, const DefAnalysis &analysis,
         const NetworkCompileOptions &mode)
{
    BatchPlan plan;
    plan.numInputs = def.inputIds.size();
    plan.numOutputs = def.outputIds.size();
    appendLane(plan, def, analysis, mode);
    return plan;
}

Result<std::unique_ptr<BatchNetwork>>
compilePopulation(const std::vector<NetworkDef> &defs,
                  const NetworkCompileOptions &options,
                  std::vector<NetStats> *stats)
{
    if (defs.empty())
        return Status::error(
            "batch compile needs at least one definition");
    if (Status mode = options.validate(); !mode.ok())
        return mode;

    BatchPlan plan;
    plan.numInputs = defs.front().inputIds.size();
    plan.numOutputs = defs.front().outputIds.size();
    if (stats) {
        stats->clear();
        stats->reserve(defs.size());
    }

    for (size_t i = 0; i < defs.size(); ++i) {
        const DefAnalysis &analysis = analyzeDef(defs[i]);
        if (Status invariants =
                checkDefInvariants(analysis, options.recurrent);
            !invariants.ok()) {
            return Status::error("genome ", i, ": malformed NetworkDef: ",
                                 invariants.message());
        }
        if (defs[i].inputIds.size() != plan.numInputs ||
            defs[i].outputIds.size() != plan.numOutputs) {
            return Status::error(
                "batch lane ", i, " has arity ", defs[i].inputIds.size(),
                "x", defs[i].outputIds.size(), " but the batch is ",
                plan.numInputs, "x", plan.numOutputs,
                " (all lanes must share input/output arity)");
        }
        appendLane(plan, defs[i], analysis, options);
        if (stats)
            stats->push_back(netStatsOf(defs[i], analysis));
    }
    return std::unique_ptr<BatchNetwork>(
        new BatchNetwork(std::move(plan), options));
}

Result<std::unique_ptr<BatchNetwork>>
compilePopulation(const std::vector<NetworkDef> &defs,
                  const NetworkCompileOptions &options, BatchEngine)
{
    return compilePopulation(defs, options);
}

Result<std::unique_ptr<BatchNetwork>>
compileReplicated(const NetworkDef &def, size_t lanes,
                  const NetworkCompileOptions &options)
{
    if (lanes == 0)
        return Status::error("replicated batch needs at least one lane");
    if (Status mode = options.validate(); !mode.ok())
        return mode;
    const DefAnalysis &analysis = analyzeDef(def);
    if (Status invariants = checkDefInvariants(analysis, options.recurrent);
        !invariants.ok())
        return Status::error("malformed NetworkDef: ",
                             invariants.message());

    // One shared program; each further lane is just a fresh region of
    // the value arena (the output-slot table is lane-local, so it is
    // shared too).
    BatchPlan plan = lanePlan(def, analysis, options);
    const BatchPlan::LaneProgram proto = plan.lanes.front();
    for (size_t lane = 1; lane < lanes; ++lane) {
        BatchPlan::LaneProgram p = proto;
        p.valueBase = static_cast<uint32_t>(lane) * proto.slotCount;
        plan.lanes.push_back(p);
    }
    plan.arenaSize = static_cast<size_t>(proto.slotCount) * lanes;
    return std::unique_ptr<BatchNetwork>(
        new BatchNetwork(std::move(plan), options));
}

BatchNetwork::BatchNetwork(BatchPlan plan, const NetworkCompileOptions &mode)
    : plan_(std::move(plan)), mode_(mode),
      values_(plan_.arenaSize * (mode.recurrent ? 2 : 1), 0.0)
{
#ifndef NDEBUG
    if (Status sound = checkPlanInvariants(plan_); !sound.ok())
        e3_panic("batch plan failed its invariant check: ",
                 sound.message());
#endif
}

E3_HOT void
BatchNetwork::activateBatch(size_t count, const double *inputs,
                            size_t inputStride, double *outputs,
                            size_t outputStride)
{
    e3_assert(count <= plan_.lanes.size(), "batch count ", count,
              " exceeds ", plan_.lanes.size(), " lanes");
    for (size_t lane = 0; lane < count; ++lane) {
        activateLane(lane, inputs + lane * inputStride,
                     outputs + lane * outputStride);
    }
}

/*
 * One out-of-line body per store mode: inlining both into activateLane
 * would let the quantized path's register pressure spill the float
 * path's loop state.
 */
template <bool Quantize>
__attribute__((noinline)) void
BatchNetwork::runLane(size_t lane, const double *inputs, double *outputs)
{
    const BatchPlan::LaneProgram &p = plan_.lanes[lane];
    const FixedPointFormat *format =
        mode_.quantization ? &*mode_.quantization : nullptr;
    double *v = values_.data() + p.valueBase;
    for (size_t i = 0; i < plan_.numInputs; ++i)
        v[i] = detail::storedValue<Quantize>(inputs[i], format);

    // The recurrent mode folds the previous tick (the lane's state
    // region) into the next-tick region, then keeps that as the state.
    double *const dst = mode_.recurrent ? v + plan_.arenaSize : v;
    const BatchPlan::NodeRun *const nodes = plan_.nodes.data();
    const BatchPlan::Op *const ops = plan_.ops.data();
    for (uint32_t s = p.segBegin; s != p.segEnd; ++s) {
        const BatchPlan::Segment seg = plan_.segments[s];
        const uint32_t b = seg.nodeBegin, e = seg.nodeEnd;
        if (seg.agg == Aggregation::Sum) {
            // Fast path for the dominant aggregation: one activation
            // dispatch per *segment*, then a call-free inner loop
            // (see detail::runSumSegment).
            switch (seg.act) {
              case Activation::Sigmoid:
                detail::runSumSegment<Activation::Sigmoid, Quantize>(
                    nodes, b, e, ops, v, dst, format);
                break;
              case Activation::Tanh:
                detail::runSumSegment<Activation::Tanh, Quantize>(
                    nodes, b, e, ops, v, dst, format);
                break;
              case Activation::ReLU:
                detail::runSumSegment<Activation::ReLU, Quantize>(
                    nodes, b, e, ops, v, dst, format);
                break;
              case Activation::Identity:
                detail::runSumSegment<Activation::Identity, Quantize>(
                    nodes, b, e, ops, v, dst, format);
                break;
              case Activation::Sin:
                detail::runSumSegment<Activation::Sin, Quantize>(
                    nodes, b, e, ops, v, dst, format);
                break;
              case Activation::Gauss:
                detail::runSumSegment<Activation::Gauss, Quantize>(
                    nodes, b, e, ops, v, dst, format);
                break;
              case Activation::Abs:
                detail::runSumSegment<Activation::Abs, Quantize>(
                    nodes, b, e, ops, v, dst, format);
                break;
              case Activation::Clamped:
                detail::runSumSegment<Activation::Clamped, Quantize>(
                    nodes, b, e, ops, v, dst, format);
                break;
            }
        } else {
            for (uint32_t n = b; n != e; ++n) {
                const BatchPlan::NodeRun &node = nodes[n];
                Aggregator agg(seg.agg);
                for (const BatchPlan::Op *op = ops + node.opBegin;
                     op != ops + node.opEnd; ++op)
                    agg.add(v[op->srcSlot] * op->weight);
                dst[node.dstSlot] = detail::storedValue<Quantize>(
                    applyActivation(seg.act, agg.result() + node.bias),
                    format);
            }
        }
    }
    if (dst != v)
        std::copy(dst + plan_.numInputs, dst + p.slotCount,
                  v + plan_.numInputs);

    const uint32_t *const outSlots =
        plan_.outputSlots.data() + p.outBase;
    for (size_t o = 0; o < plan_.numOutputs; ++o)
        outputs[o] = v[outSlots[o]];
}

E3_HOT void
BatchNetwork::activateLane(size_t lane, const double *inputs,
                           double *outputs)
{
    if (mode_.quantization)
        runLane<true>(lane, inputs, outputs);
    else
        runLane<false>(lane, inputs, outputs);
}

void
BatchNetwork::reset()
{
    std::fill(values_.begin(), values_.end(), 0.0);
}

void
BatchNetwork::resetLane(size_t lane)
{
    // The next-tick region is scratch, fully rewritten by every tick.
    const BatchPlan::LaneProgram &p = plan_.lanes[lane];
    std::fill_n(values_.begin() + p.valueBase, p.slotCount, 0.0);
}

} // namespace e3
