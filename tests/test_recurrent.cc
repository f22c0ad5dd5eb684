#include <gtest/gtest.h>

#include <cmath>

#include "neat/mutation.hh"
#include "nn/batch_eval.hh"
#include "nn/layering.hh"
#include "nn/net_stats.hh"

namespace e3 {
namespace {

/** Compile options for synchronous-tick (recurrent) evaluation. */
const NetworkCompileOptions kRecurrent{.recurrent = true, .quantization = {}};

TEST(Recurrent, SelfLoopIntegratesOverTicks)
{
    // out(t) = out(t-1) + x with identity activation: a running sum.
    auto def = NetworkDef::empty(1, 1);
    def.nodes[0].act = Activation::Identity;
    def.conns = {{-1, 0, 1.0}, {0, 0, 1.0}};
    auto net = Network::create(def, kRecurrent);

    EXPECT_DOUBLE_EQ(net.activate({1.0})[0], 1.0);
    EXPECT_DOUBLE_EQ(net.activate({1.0})[0], 2.0);
    EXPECT_DOUBLE_EQ(net.activate({1.0})[0], 3.0);
    net.reset();
    EXPECT_DOUBLE_EQ(net.activate({1.0})[0], 1.0);
}

TEST(Recurrent, TwoNodeOscillator)
{
    // a = -b(t-1), b = a(t-1), identity: a 4-cycle once energized.
    auto def = NetworkDef::empty(1, 2);
    def.nodes[0].act = Activation::Identity; // a (output 0)
    def.nodes[1].act = Activation::Identity; // b (output 1)
    def.conns = {{-1, 0, 1.0}, {1, 0, -1.0}, {0, 1, 1.0}};
    auto net = Network::create(def, kRecurrent);

    // Kick with one unit of input, then run free.
    auto o = net.activate({1.0}); // a=1, b=0
    EXPECT_DOUBLE_EQ(o[0], 1.0);
    EXPECT_DOUBLE_EQ(o[1], 0.0);
    o = net.activate({0.0}); // a=-0, b=1
    EXPECT_DOUBLE_EQ(o[1], 1.0);
    o = net.activate({0.0}); // a=-1
    EXPECT_DOUBLE_EQ(o[0], -1.0);
}

TEST(Recurrent, FeedForwardDefSettlesToFeedForwardOutput)
{
    // Property: on an acyclic definition with L dependency layers and
    // constant input, L recurrent ticks reproduce the feed-forward
    // output exactly (values ripple one layer per tick).
    auto def = NetworkDef::empty(2, 1);
    def.nodes.push_back({1, 0.1, Activation::Tanh, Aggregation::Sum});
    def.nodes.push_back({2, -0.2, Activation::Tanh, Aggregation::Sum});
    def.nodes[0].bias = 0.3;
    def.conns = {{-1, 1, 0.8}, {-2, 1, -0.5}, {1, 2, 1.2},
                 {2, 0, 0.7},  {-1, 0, 0.4}};

    auto ff = Network::create(def);
    const std::vector<double> x{0.6, -0.9};
    const auto expected = ff.activate(x);

    auto rec = Network::create(def, kRecurrent);
    const size_t layers = computeNetStats(def).layerSizes.size();
    std::vector<double> out;
    for (size_t t = 0; t < layers; ++t)
        out = rec.activate(x);
    ASSERT_EQ(out.size(), expected.size());
    EXPECT_NEAR(out[0], expected[0], 1e-12);
}

TEST(Recurrent, PrunesUnrequiredNodes)
{
    auto def = NetworkDef::empty(1, 1);
    def.nodes.push_back({1, 0.0, Activation::Sigmoid,
                         Aggregation::Sum}); // dead-end
    def.conns = {{-1, 0, 1.0}, {-1, 1, 1.0}};
    const auto net = Network::create(def, kRecurrent);
    EXPECT_EQ(net.plan().nodes.size(), 1u);
    EXPECT_EQ(net.plan().ops.size(), 1u);
}

TEST(RecurrentDeath, WrongArityPanics)
{
    auto def = NetworkDef::empty(2, 1);
    def.conns = {{-1, 0, 1.0}};
    auto net = Network::create(def, kRecurrent);
    EXPECT_DEATH(net.activate({1.0}), "inputs");
}

TEST(RecurrentEvolution, NonFeedForwardConfigGrowsCycles)
{
    NeatConfig cfg = NeatConfig::forTask(2, 1, 1.0);
    cfg.feedForward = false;
    cfg.connAddProb = 1.0;
    Rng rng(5);
    InnovationTracker innovation(1);
    Genome genome(0);
    genome.configureNew(cfg, rng);

    bool sawCycle = false;
    for (int i = 0; i < 200 && !sawCycle; ++i) {
        mutateGenome(genome, cfg, rng, innovation);
        sawCycle = !isAcyclic(genome.toNetworkDef(cfg));
    }
    EXPECT_TRUE(sawCycle)
        << "no cycle evolved in 200 unconstrained mutations";

    // And the recurrent evaluator still runs it.
    auto net = Network::create(genome.toNetworkDef(cfg), kRecurrent);
    for (int t = 0; t < 10; ++t) {
        const auto out = net.activate({0.5, -0.5});
        ASSERT_EQ(out.size(), 1u);
        ASSERT_TRUE(std::isfinite(out[0]));
    }
}

TEST(RecurrentEvolution, FeedForwardConfigStaysAcyclic)
{
    NeatConfig cfg = NeatConfig::forTask(2, 1, 1.0);
    cfg.connAddProb = 1.0; // feedForward stays true
    Rng rng(6);
    InnovationTracker innovation(1);
    Genome genome(0);
    genome.configureNew(cfg, rng);
    for (int i = 0; i < 100; ++i) {
        mutateGenome(genome, cfg, rng, innovation);
        ASSERT_TRUE(isAcyclic(genome.toNetworkDef(cfg)));
    }
}

} // namespace
} // namespace e3
