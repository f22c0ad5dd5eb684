#include "verify/reference_layering.hh"

#include <algorithm>
#include <map>

#include "common/logging.hh"

namespace e3::verify {

std::set<int>
referenceRequiredNodes(const NetworkDef &def)
{
    // Backward reachability from the outputs: walk connections in
    // reverse until no new node is discovered. Inputs are never
    // "required" (they are sources, not computed nodes).
    const std::set<int> inputs(def.inputIds.begin(), def.inputIds.end());
    std::set<int> required(def.outputIds.begin(), def.outputIds.end());
    bool grew = true;
    while (grew) {
        grew = false;
        for (const auto &c : def.conns) {
            if (required.count(c.to) && !required.count(c.from) &&
                !inputs.count(c.from)) {
                required.insert(c.from);
                grew = true;
            }
        }
    }
    return required;
}

std::vector<std::vector<int>>
referenceLayers(const NetworkDef &def)
{
    const std::set<int> required = referenceRequiredNodes(def);
    const std::set<int> inputs(def.inputIds.begin(), def.inputIds.end());

    // Ingress lists restricted to required nodes; connections from
    // unrequired nodes can never fire and are ignored.
    std::map<int, std::vector<int>> ingress;
    for (int id : required)
        ingress[id];
    for (const auto &c : def.conns) {
        if (!required.count(c.to))
            continue;
        if (inputs.count(c.from) || required.count(c.from))
            ingress[c.to].push_back(c.from);
    }

    std::set<int> placed(inputs); // inputs are available from the start
    std::vector<std::vector<int>> layers;
    while (true) {
        std::vector<int> layer;
        for (const auto &[id, sources] : ingress) {
            if (placed.count(id))
                continue;
            // Vacuously ready when ingress-free.
            if (std::all_of(sources.begin(), sources.end(),
                            [&](int src) { return placed.count(src) > 0; }))
                layer.push_back(id);
        }
        if (layer.empty())
            break;
        placed.insert(layer.begin(), layer.end());
        layers.push_back(std::move(layer));
    }
    return layers;
}

bool
referenceIsAcyclic(const NetworkDef &def)
{
    const std::set<int> inputs(def.inputIds.begin(), def.inputIds.end());
    size_t computed = 0;
    for (int id : referenceRequiredNodes(def))
        computed += inputs.count(id) ? 0 : 1;
    size_t placed = 0;
    for (const auto &layer : referenceLayers(def))
        placed += layer.size();
    return placed == computed;
}

ReferenceNetwork
ReferenceNetwork::create(const NetworkDef &def)
{
    const std::vector<std::vector<int>> layers = referenceLayers(def);
    const std::set<int> required = referenceRequiredNodes(def);
    std::map<int, uint32_t> slotOf;
    for (size_t i = 0; i < def.inputIds.size(); ++i)
        slotOf[def.inputIds[i]] = static_cast<uint32_t>(i);
    auto slots = static_cast<uint32_t>(def.inputIds.size());
    for (const auto &layer : layers) {
        for (int id : layer)
            slotOf[id] = slots++;
    }
    e3_assert(std::all_of(required.begin(), required.end(),
                          [&](int id) { return slotOf.count(id) > 0; }),
              "reference network: a required node sits on a cycle");
    // Every input and required node now has a slot, and nothing else.
    std::map<int, std::vector<BatchPlan::Op>> ingress;
    for (const auto &c : def.conns) {
        if (required.count(c.to) && slotOf.count(c.from))
            ingress[c.to].push_back({slotOf.at(c.from), c.weight});
    }
    std::map<int, const NetworkDef::Node *> nodeOf;
    for (const auto &node : def.nodes)
        nodeOf.emplace(node.id, &node);

    ReferenceNetwork net;
    net.numInputs_ = def.inputIds.size();
    for (const auto &layer : layers) {
        std::vector<Node> &nodes = net.layers_.emplace_back();
        for (int id : layer) {
            const NetworkDef::Node &node = *nodeOf.at(id);
            nodes.push_back({slotOf.at(id), node.bias, node.act, node.agg,
                             std::move(ingress[id])});
        }
    }
    for (int id : def.outputIds)
        net.outputSlots_.push_back(slotOf.at(id));
    net.values_.assign(slots, 0.0);
    return net;
}

void
ReferenceNetwork::activateInto(const double *inputs, double *outputs)
{
    std::copy(inputs, inputs + numInputs_, values_.begin());
    for (const auto &layer : layers_) {
        for (const Node &node : layer) {
            Aggregator agg(node.agg);
            for (const BatchPlan::Op &link : node.links)
                agg.add(values_[link.srcSlot] * link.weight);
            values_[node.slot] =
                applyActivation(node.act, agg.result() + node.bias);
        }
    }
    for (size_t o = 0; o < outputSlots_.size(); ++o)
        outputs[o] = values_[outputSlots_[o]];
}

std::vector<double>
ReferenceNetwork::activate(const std::vector<double> &inputs)
{
    e3_assert(inputs.size() == numInputs_, "expected ", numInputs_,
              " inputs, got ", inputs.size());
    std::vector<double> out(outputSlots_.size());
    activateInto(inputs.data(), out.data());
    return out;
}

void
ReferenceNetwork::appendLaneTo(BatchPlan &plan) const
{
    BatchPlan::LaneProgram lane;
    lane.segBegin = static_cast<uint32_t>(plan.segments.size());
    lane.valueBase = plan.lanes.empty() ? 0
                                        : plan.lanes.back().valueBase +
                                              plan.lanes.back().slotCount;
    lane.slotCount = static_cast<uint32_t>(values_.size());
    lane.outBase = static_cast<uint32_t>(plan.outputSlots.size());
    for (const auto &layer : layers_) {
        for (const Node &node : layer) {
            if (plan.segments.size() == lane.segBegin ||
                plan.segments.back().act != node.act ||
                plan.segments.back().agg != node.agg) {
                const auto at = static_cast<uint32_t>(plan.nodes.size());
                plan.segments.push_back({at, at, node.act, node.agg});
            }
            const auto opBegin = static_cast<uint32_t>(plan.ops.size());
            plan.ops.insert(plan.ops.end(), node.links.begin(),
                            node.links.end());
            plan.nodes.push_back({node.slot, opBegin,
                                  static_cast<uint32_t>(plan.ops.size()),
                                  node.bias});
            plan.segments.back().nodeEnd =
                static_cast<uint32_t>(plan.nodes.size());
        }
    }
    lane.segEnd = static_cast<uint32_t>(plan.segments.size());
    plan.outputSlots.insert(plan.outputSlots.end(), outputSlots_.begin(),
                            outputSlots_.end());
    plan.lanes.push_back(lane);
}

} // namespace e3::verify
