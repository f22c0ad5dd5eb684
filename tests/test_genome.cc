#include "neat/genome.hh"

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "nn/net_stats.hh"

namespace e3 {
namespace {

TEST(Genome, ConfigureNewFullDirect)
{
    const auto cfg = NeatConfig::forTask(3, 2, 1.0);
    Rng rng(1);
    Genome g(0);
    g.configureNew(cfg, rng);
    EXPECT_EQ(g.nodes.size(), 2u);               // outputs only
    EXPECT_EQ(g.conns.size(), 3u * 2u);          // full input->output
    EXPECT_FALSE(g.evaluated());
    for (const auto &[key, gene] : g.conns) {
        EXPECT_LT(key.first, 0);  // from an input
        EXPECT_GE(key.second, 0); // to an output
        EXPECT_TRUE(gene.enabled);
    }
}

TEST(Genome, ConfigureNewWithHiddenLayer)
{
    auto cfg = NeatConfig::forTask(2, 1, 1.0);
    cfg.numHidden = 4;
    Rng rng(2);
    Genome g(0);
    g.configureNew(cfg, rng);
    EXPECT_EQ(g.nodes.size(), 1u + 4u);
    // input->hidden plus hidden->output.
    EXPECT_EQ(g.conns.size(), 2u * 4 + 4u * 1);
}

TEST(Genome, PartialInitialConnectivity)
{
    auto cfg = NeatConfig::forTask(8, 4, 1.0);
    cfg.initialConnectionFraction = 0.2; // paper's sparsity-rate knob
    Rng rng(3);
    Distribution connCounts;
    for (int i = 0; i < 50; ++i) {
        Genome g(i);
        g.configureNew(cfg, rng);
        connCounts.add(static_cast<double>(g.conns.size()));
    }
    EXPECT_NEAR(connCounts.mean(), 0.2 * 32, 2.0);
}

TEST(Genome, ToNetworkDefDropsDisabled)
{
    const auto cfg = NeatConfig::forTask(2, 1, 1.0);
    Rng rng(4);
    Genome g(0);
    g.configureNew(cfg, rng);
    g.conns.at({-1, 0}).enabled = false;
    const auto def = g.toNetworkDef(cfg);
    EXPECT_EQ(def.conns.size(), 1u);
    EXPECT_EQ(def.conns[0].from, -2);
}

TEST(Genome, DecodedNetworkIsRunnable)
{
    const auto cfg = NeatConfig::forTask(4, 2, 1.0);
    Rng rng(5);
    Genome g(0);
    g.configureNew(cfg, rng);
    auto net = Network::create(g.toNetworkDef(cfg));
    const auto out = net.activate({0.1, 0.2, 0.3, 0.4});
    ASSERT_EQ(out.size(), 2u);
    for (double o : out) {
        EXPECT_GE(o, 0.0);
        EXPECT_LE(o, 1.0); // sigmoid outputs
    }
}

TEST(Genome, DistanceZeroToSelf)
{
    const auto cfg = NeatConfig::forTask(3, 1, 1.0);
    Rng rng(6);
    Genome g(0);
    g.configureNew(cfg, rng);
    EXPECT_DOUBLE_EQ(g.distance(g, cfg), 0.0);
}

TEST(Genome, DistanceIsSymmetric)
{
    const auto cfg = NeatConfig::forTask(3, 1, 1.0);
    Rng rng(7);
    Genome a(0), b(1);
    a.configureNew(cfg, rng);
    b.configureNew(cfg, rng);
    EXPECT_NEAR(a.distance(b, cfg), b.distance(a, cfg), 1e-12);
}

TEST(Genome, DisjointGenesIncreaseDistance)
{
    const auto cfg = NeatConfig::forTask(2, 1, 1.0);
    Rng rng(8);
    Genome a(0), b(1);
    a.configureNew(cfg, rng);
    b = a;
    const double base = a.distance(b, cfg);
    // Give b an extra hidden node + connection.
    b.nodes.emplace(5, NodeGene::create(5, cfg, rng));
    const ConnKey k{-1, 5};
    b.conns.emplace(k, ConnGene::create(k, cfg, rng));
    EXPECT_GT(a.distance(b, cfg), base);
}

TEST(Genome, WeightDifferenceScalesDistance)
{
    auto cfg = NeatConfig::forTask(1, 1, 1.0);
    Rng rng(9);
    Genome a(0);
    a.configureNew(cfg, rng);
    Genome b = a;
    b.conns.at({-1, 0}).weight += 2.0;
    // One homologous conn differing by 2.0, weight coefficient 0.5,
    // normalized by max(1,1) genes -> conn distance 1.0. Node genes are
    // identical.
    EXPECT_NEAR(a.distance(b, cfg), 1.0, 1e-12);
}

TEST(Genome, SizeCountsEnabledOnly)
{
    const auto cfg = NeatConfig::forTask(2, 2, 1.0);
    Rng rng(10);
    Genome g(0);
    g.configureNew(cfg, rng);
    auto [nodes, conns] = g.size();
    EXPECT_EQ(nodes, 2u);
    EXPECT_EQ(conns, 4u);
    g.conns.begin()->second.enabled = false;
    EXPECT_EQ(g.size().second, 3u);
}

} // namespace
} // namespace e3
