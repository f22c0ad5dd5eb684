#include "nn/network.hh"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/batch_eval.hh"
#include "nn/net_stats.hh"

namespace e3 {
namespace {

double
sigmoid(double x)
{
    return 1.0 / (1.0 + std::exp(-4.9 * x));
}

TEST(Network, EmptyDefHasStandardIds)
{
    const auto def = NetworkDef::empty(3, 2);
    EXPECT_EQ(def.inputIds, (std::vector<int>{-1, -2, -3}));
    EXPECT_EQ(def.outputIds, (std::vector<int>{0, 1}));
    EXPECT_EQ(def.nodes.size(), 2u);
}

TEST(Network, SingleConnectionForward)
{
    auto def = NetworkDef::empty(1, 1);
    def.nodes[0].bias = 0.0;
    def.conns = {{-1, 0, 2.0}};
    auto net = Network::create(def);
    const auto out = net.activate({0.5});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NEAR(out[0], sigmoid(1.0), 1e-12);
}

TEST(Network, BiasAppliesBeforeActivation)
{
    auto def = NetworkDef::empty(1, 1);
    def.nodes[0].bias = 0.7;
    def.conns = {{-1, 0, 1.0}};
    auto net = Network::create(def);
    EXPECT_NEAR(net.activate({0.3})[0], sigmoid(1.0), 1e-12);
}

TEST(Network, DisconnectedOutputEmitsActivatedBias)
{
    auto def = NetworkDef::empty(2, 1);
    def.nodes[0].bias = 0.0;
    auto net = Network::create(def);
    EXPECT_NEAR(net.activate({5.0, -5.0})[0], 0.5, 1e-12);
}

TEST(Network, HiddenChainComputesComposition)
{
    auto def = NetworkDef::empty(1, 1);
    def.nodes.push_back({7, 0.1, Activation::Identity,
                         Aggregation::Sum});
    def.nodes[0].bias = -0.2;
    def.nodes[0].act = Activation::Identity;
    def.conns = {{-1, 7, 3.0}, {7, 0, 0.5}};
    auto net = Network::create(def);
    // h = 3*x + 0.1; out = 0.5*h - 0.2
    EXPECT_NEAR(net.activate({2.0})[0], 0.5 * 6.1 - 0.2, 1e-12);
}

TEST(Network, SkipConnectionAddsBothPaths)
{
    auto def = NetworkDef::empty(1, 1);
    def.nodes.push_back({5, 0.0, Activation::Identity,
                         Aggregation::Sum});
    def.nodes[0].bias = 0.0;
    def.nodes[0].act = Activation::Identity;
    def.conns = {{-1, 5, 1.0}, {5, 0, 1.0}, {-1, 0, 1.0}};
    auto net = Network::create(def);
    // out = h + x = x + x = 2x
    EXPECT_NEAR(net.activate({1.5})[0], 3.0, 1e-12);
}

TEST(Network, PrunedNodesDoNotExecute)
{
    auto def = NetworkDef::empty(1, 1);
    def.nodes.push_back({9, 0.0, Activation::Sigmoid,
                         Aggregation::Sum}); // dead-end hidden
    def.conns = {{-1, 0, 1.0}, {-1, 9, 1.0}};
    const NetStats stats = computeNetStats(def);
    EXPECT_EQ(stats.activeNodes, 1u);       // only the output survives
    EXPECT_EQ(stats.activeConnections, 1u); // -1 -> 0
    auto net = Network::create(def);
    EXPECT_EQ(net.valueSlots(), 1u + 1u);
    EXPECT_EQ(net.plan().ops.size(), 1u);
}

TEST(Network, MultiOutputOrderingMatchesOutputIds)
{
    auto def = NetworkDef::empty(1, 2);
    def.nodes[0].act = Activation::Identity;
    def.nodes[1].act = Activation::Identity;
    def.conns = {{-1, 0, 1.0}, {-1, 1, -1.0}};
    auto net = Network::create(def);
    const auto out = net.activate({2.0});
    EXPECT_DOUBLE_EQ(out[0], 2.0);
    EXPECT_DOUBLE_EQ(out[1], -2.0);
}

TEST(Network, AggregationVariantsChangeNodeSemantics)
{
    auto def = NetworkDef::empty(2, 1);
    def.nodes[0].act = Activation::Identity;
    def.nodes[0].agg = Aggregation::Max;
    def.conns = {{-1, 0, 1.0}, {-2, 0, 1.0}};
    auto net = Network::create(def);
    EXPECT_DOUBLE_EQ(net.activate({3.0, 7.0})[0], 7.0);
    EXPECT_DOUBLE_EQ(net.activate({9.0, 7.0})[0], 9.0);
}

TEST(Network, ActivateIsRepeatableAndStateless)
{
    auto def = NetworkDef::empty(2, 1);
    def.conns = {{-1, 0, 0.3}, {-2, 0, -0.8}};
    auto net = Network::create(def);
    const auto a = net.activate({0.1, 0.9});
    net.activate({-5.0, 5.0}); // perturb internal values
    const auto b = net.activate({0.1, 0.9});
    EXPECT_EQ(a, b);
}

TEST(Network, CountsMatchStructure)
{
    auto def = NetworkDef::empty(2, 2);
    def.nodes.push_back({3, 0.0, Activation::Sigmoid,
                         Aggregation::Sum});
    def.conns = {{-1, 3, 1.0}, {-2, 3, 1.0}, {3, 0, 1.0}, {3, 1, 1.0},
                 {-1, 0, 1.0}};
    const NetStats stats = computeNetStats(def);
    EXPECT_EQ(stats.activeNodes, 3u);
    EXPECT_EQ(stats.activeConnections, 5u);
    auto net = Network::create(def);
    EXPECT_EQ(net.numInputs(), 2u);
    EXPECT_EQ(net.numOutputs(), 2u);
    EXPECT_EQ(net.valueSlots(), 2u + 3u);
}

TEST(NetworkDeath, WrongInputArityPanics)
{
    auto def = NetworkDef::empty(2, 1);
    def.conns = {{-1, 0, 1.0}};
    auto net = Network::create(def);
    EXPECT_DEATH(net.activate({1.0}), "inputs");
}

TEST(NetworkDeath, MissingOutputNodePanics)
{
    NetworkDef def;
    def.inputIds = {-1};
    def.outputIds = {0};
    // def.nodes intentionally left empty.
    EXPECT_DEATH(Network::create(def), "output node");
}

TEST(NetworkDeath, DuplicateNodeIdPanics)
{
    auto def = NetworkDef::empty(1, 1);
    def.nodes.push_back({0, 0.0, Activation::Sigmoid,
                         Aggregation::Sum});
    EXPECT_DEATH(Network::create(def), "duplicate");
}

} // namespace
} // namespace e3
