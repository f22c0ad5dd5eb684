#include "nn/network.hh"

#include "common/hot.hh"
#include "common/logging.hh"
#include "nn/batch_eval.hh"
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

FeedForwardNetwork::FeedForwardNetwork() = default;
FeedForwardNetwork::FeedForwardNetwork(FeedForwardNetwork &&) noexcept =
    default;
FeedForwardNetwork &
FeedForwardNetwork::operator=(FeedForwardNetwork &&) noexcept = default;
FeedForwardNetwork::~FeedForwardNetwork() = default;

FeedForwardNetwork
FeedForwardNetwork::create(const NetworkDef &def)
{
    const DefAnalysis &a = analyzeDef(def);
    a.assertBuildable(def);
    a.assertAcyclic();
    FeedForwardNetwork net;
    net.lane_ = BatchEvaluator::fromPlan(feedForwardPlan(def, a));
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
    lane_->BatchEvaluator::activateLane(0, inputs, outputs);
}

size_t
FeedForwardNetwork::numInputs() const
{
    return lane_->numInputs();
}

size_t
FeedForwardNetwork::numOutputs() const
{
    return lane_->numOutputs();
}

size_t
FeedForwardNetwork::valueSlots() const
{
    return lane_->values_.size();
}

std::span<const double>
FeedForwardNetwork::values() const
{
    return lane_->values_; // one lane: the whole arena
}

const BatchPlan &
FeedForwardNetwork::plan() const
{
    return *lane_->plan();
}

} // namespace e3
