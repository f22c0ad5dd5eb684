#include "nn/recurrent.hh"

#include "common/logging.hh"
#include "nn/layering.hh"

namespace e3 {

RecurrentNetwork
RecurrentNetwork::create(const NetworkDef &def)
{
    const DefAnalysis &a = analyzeDef(def);
    a.assertBuildable(def);

    // Slot assignment: inputs first, then required nodes in id order
    // (no topological constraint exists for recurrent evaluation).
    std::vector<uint32_t> slot(a.slot);
    std::vector<uint32_t> nodes;
    for (uint32_t i = 0; i < a.ids.size(); ++i) {
        if (a.has(i, DefAnalysis::kRequired)) {
            slot[i] = static_cast<uint32_t>(def.inputIds.size() +
                                            nodes.size());
            nodes.push_back(i);
        }
    }

    RecurrentNetwork net;
    net.plan_.numInputs = def.inputIds.size();
    net.plan_.numOutputs = def.outputIds.size();
    appendLane(net.plan_, def, a, nodes, slot);
    net.prev_.assign(net.plan_.arenaSize, 0.0);
    net.next_.assign(net.plan_.arenaSize, 0.0);
    return net;
}

void
RecurrentNetwork::activateInto(const double *inputs, double *outputs)
{
    // Inputs are visible within the tick; node reads see the previous
    // tick's activations (neat-python RecurrentNetwork semantics).
    for (size_t i = 0; i < plan_.numInputs; ++i) {
        prev_[i] = inputs[i];
        next_[i] = inputs[i];
    }

    plan_.forEachNode(0, [&](const BatchPlan::Segment &seg,
                             const BatchPlan::NodeRun &node) {
        Aggregator agg(seg.agg);
        for (const BatchPlan::Op &op : plan_.opsOf(node))
            agg.add(prev_[op.srcSlot] * op.weight);
        next_[node.dstSlot] =
            applyActivation(seg.act, agg.result() + node.bias);
    });
    std::swap(prev_, next_);

    for (size_t o = 0; o < plan_.numOutputs; ++o)
        outputs[o] = prev_[plan_.outputSlots[o]];
}

void
RecurrentNetwork::reset()
{
    std::fill(prev_.begin(), prev_.end(), 0.0);
    std::fill(next_.begin(), next_.end(), 0.0);
}

} // namespace e3
