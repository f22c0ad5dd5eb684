#include "e3/synthetic.hh"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/layering.hh"
#include "nn/net_stats.hh"

namespace e3 {
namespace {

TEST(Synthetic, DefaultsMatchPaperFootnote)
{
    const SyntheticParams params;
    EXPECT_EQ(params.numIndividuals, 200u);
    EXPECT_EQ(params.numInputs, 8u);
    EXPECT_EQ(params.numOutputs, 4u);
    EXPECT_EQ(params.numHidden, 30u);
    EXPECT_DOUBLE_EQ(params.sparsity, 0.2);
}

TEST(Synthetic, NetworksAreAcyclicAndFullyRequired)
{
    SyntheticParams params;
    Rng rng(1);
    for (int i = 0; i < 20; ++i) {
        const auto def = syntheticIrregularNet(params, rng);
        EXPECT_TRUE(isAcyclic(def));
        // Every hidden node is required (guaranteed in/egress).
        DefAnalysis analysis;
        analyzeDef(def, analysis);
        size_t required = 0;
        for (int id : analysis.ids)
            required += analysis.isRequired(id) ? 1 : 0;
        EXPECT_EQ(required, params.numHidden + params.numOutputs);
    }
}

TEST(Synthetic, NetworksAreRunnable)
{
    SyntheticParams params;
    Rng rng(2);
    const auto def = syntheticIrregularNet(params, rng);
    auto net = FeedForwardNetwork::create(def);
    const auto out =
        net.activate(std::vector<double>(params.numInputs, 0.3));
    ASSERT_EQ(out.size(), params.numOutputs);
    for (double o : out)
        EXPECT_TRUE(std::isfinite(o));
}

TEST(Synthetic, SparsityControlsConnectionCount)
{
    SyntheticParams sparse;
    sparse.sparsity = 0.1;
    SyntheticParams denser = sparse;
    denser.sparsity = 0.5;

    Rng rngA(3), rngB(3);
    double sparseConns = 0, denseConns = 0;
    for (int i = 0; i < 10; ++i) {
        sparseConns += static_cast<double>(
            syntheticIrregularNet(sparse, rngA).conns.size());
        denseConns += static_cast<double>(
            syntheticIrregularNet(denser, rngB).conns.size());
    }
    EXPECT_GT(denseConns, 2 * sparseConns);
}

TEST(Synthetic, PopulationIsDeterministicFromSeed)
{
    SyntheticParams params;
    params.numIndividuals = 5;
    const auto a = syntheticPopulation(params, 77);
    const auto b = syntheticPopulation(params, 77);
    ASSERT_EQ(a.size(), 5u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].conns.size(), b[i].conns.size());
        for (size_t c = 0; c < a[i].conns.size(); ++c)
            EXPECT_DOUBLE_EQ(a[i].conns[c].weight,
                             b[i].conns[c].weight);
    }
}

TEST(Synthetic, EpisodeLengthsInRange)
{
    Rng rng(4);
    const auto lens = syntheticEpisodeLengths(1000, 60, 200, rng);
    int lo = 1000, hi = 0;
    for (int len : lens) {
        EXPECT_GE(len, 60);
        EXPECT_LE(len, 200);
        lo = std::min(lo, len);
        hi = std::max(hi, len);
    }
    // The spread the PU-variance study depends on actually appears.
    EXPECT_LE(lo, 80);
    EXPECT_GE(hi, 180);
}

TEST(SyntheticDeath, BadRangePanics)
{
    Rng rng(5);
    EXPECT_DEATH(syntheticEpisodeLengths(4, 10, 5, rng), "range");
}

TEST(Synthetic, MultiLayerStructureAppears)
{
    SyntheticParams params;
    params.hiddenLayers = 3;
    Rng rng(6);
    const auto def = syntheticIrregularNet(params, rng);
    const auto stats = computeNetStats(def);
    EXPECT_GE(stats.layerSizes.size(), 2u);
}

} // namespace
} // namespace e3
