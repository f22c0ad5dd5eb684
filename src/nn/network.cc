#include "nn/network.hh"

#include "common/hot.hh"
#include "common/logging.hh"
#include "nn/layering.hh"

namespace e3 {

NetworkDef
NetworkDef::empty(size_t numInputs, size_t numOutputs)
{
    NetworkDef def;
    for (size_t i = 0; i < numInputs; ++i)
        def.inputIds.push_back(-1 - static_cast<int>(i));
    for (size_t o = 0; o < numOutputs; ++o) {
        def.outputIds.push_back(static_cast<int>(o));
        def.nodes.push_back({static_cast<int>(o), 0.0,
                             Activation::Sigmoid, Aggregation::Sum});
    }
    return def;
}

FeedForwardNetwork
FeedForwardNetwork::create(const NetworkDef &def)
{
    return create(def, analyzeDef(def));
}

FeedForwardNetwork
FeedForwardNetwork::create(const NetworkDef &def, const DefAnalysis &a)
{
    a.assertBuildable(def);
    a.assertAcyclic();

    // Slots: inputs first, then compiled nodes in layer order.
    FeedForwardNetwork net;
    net.numInputs_ = def.inputIds.size();
    net.slotCount_ = net.numInputs_ + a.order.size();
    net.layers_.resize(a.layerCount());
    for (size_t l = 0; l < a.layerCount(); ++l) {
        std::vector<EvalNode> &layer = net.layers_[l];
        layer.reserve(a.layerEnd[l] - a.layerBegin(l));
        for (uint32_t p = a.layerBegin(l); p != a.layerEnd[l]; ++p)
            layer.push_back(a.evalNode(def, a.order[p], a.slot));
    }
    for (int id : def.outputIds)
        net.outputSlots_.push_back(a.slot[a.indexOf(id)]);

    net.values_.assign(net.slotCount_, 0.0);
    return net;
}

std::vector<double>
Network::activate(const std::vector<double> &inputs)
{
    e3_assert(inputs.size() == numInputs(),
              "expected ", numInputs(), " inputs, got ", inputs.size());
    std::vector<double> out(numOutputs());
    activateInto(inputs.data(), out.data());
    return out;
}

E3_HOT void
FeedForwardNetwork::activateInto(const double *inputs, double *outputs)
{
    for (size_t i = 0; i < numInputs_; ++i)
        values_[i] = inputs[i];

    for (const auto &layer : layers_) {
        for (const auto &node : layer) {
            Aggregator agg(node.agg);
            for (const auto &link : node.links)
                agg.add(values_[link.srcSlot] * link.weight);
            values_[node.slot] =
                applyActivation(node.act, agg.result() + node.bias);
        }
    }

    for (size_t o = 0; o < outputSlots_.size(); ++o)
        outputs[o] = values_[outputSlots_[o]];
}

size_t
FeedForwardNetwork::nodeCount() const
{
    size_t n = 0;
    for (const auto &layer : layers_)
        n += layer.size();
    return n;
}

uint64_t
FeedForwardNetwork::connectionCount() const
{
    uint64_t n = 0;
    for (const auto &layer : layers_) {
        for (const auto &node : layer)
            n += node.links.size();
    }
    return n;
}

} // namespace e3
