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

Network::Network() = default;
Network::Network(Network &&) noexcept = default;
Network &Network::operator=(Network &&) noexcept = default;
Network::~Network() = default;

Network
Network::create(const NetworkDef &def, const NetworkCompileOptions &options)
{
    const DefAnalysis &a = analyzeDef(def);
    a.assertBuildable(def);
    if (!options.recurrent)
        a.assertAcyclic();
    assertOk(options.validate());
    Network net;
    net.lane_.reset(new BatchNetwork(lanePlan(def, a, options), options));
    return net;
}

Result<Network>
compileNetwork(const NetworkDef &def, const NetworkCompileOptions &options)
{
    if (Status mode = options.validate(); !mode.ok())
        return mode;
    if (Status invariants = checkDefInvariants(def, options.recurrent);
        !invariants.ok()) {
        return Status::error("malformed NetworkDef: ",
                             invariants.message());
    }
    return Network::create(def, options);
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
Network::activateInto(const double *inputs, double *outputs)
{
    lane_->activateLane(0, inputs, outputs);
}

void
Network::reset()
{
    lane_->reset();
}

size_t
Network::numInputs() const
{
    return lane_->numInputs();
}

size_t
Network::numOutputs() const
{
    return lane_->numOutputs();
}

size_t
Network::valueSlots() const
{
    return lane_->plan_.arenaSize;
}

std::span<const double>
Network::values() const
{
    // One lane: the whole state arena.
    return {lane_->values_.data(), lane_->plan_.arenaSize};
}

const BatchPlan &
Network::plan() const
{
    return lane_->plan_;
}

} // namespace e3
