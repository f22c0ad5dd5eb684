/**
 * @file
 * Tests for the activation-density measurement and the zero-skip PE
 * cost extension.
 */

#include <gtest/gtest.h>

#include "e3/synthetic.hh"
#include "inax/pe.hh"
#include "inax/pu.hh"
#include "nn/net_stats.hh"

namespace e3 {
namespace {

TEST(ActivationDensity, SigmoidNetsAreFullyDense)
{
    SyntheticParams params;
    params.numIndividuals = 1;
    Rng rng(1);
    auto def = syntheticIrregularNet(params, rng);
    auto net = Network::create(def);
    Rng sampleRng(2);
    // Sigmoid outputs are never exactly zero; random inputs are never
    // exactly zero either.
    EXPECT_DOUBLE_EQ(measureActivationDensity(net, 10, sampleRng), 1.0);
}

TEST(ActivationDensity, ReluNetsShowSparsity)
{
    SyntheticParams params;
    params.numIndividuals = 1;
    params.numHidden = 40;
    Rng rng(3);
    auto def = syntheticIrregularNet(params, rng);
    for (auto &node : def.nodes) {
        if (node.id >= static_cast<int>(params.numOutputs))
            node.act = Activation::ReLU;
    }
    auto net = Network::create(def);
    Rng sampleRng(4);
    const double density = measureActivationDensity(net, 20, sampleRng);
    EXPECT_LT(density, 0.95);
    EXPECT_GT(density, 0.2);
}

TEST(ActivationDensity, LinkFreeNetReportsOne)
{
    auto def = NetworkDef::empty(1, 1); // disconnected output
    auto net = Network::create(def);
    Rng rng(5);
    EXPECT_DOUBLE_EQ(measureActivationDensity(net, 4, rng), 1.0);
}

TEST(ZeroSkip, DensityScalesMacCycles)
{
    InaxConfig dense;
    InaxConfig skip = dense;
    skip.activationDensity = 0.5;
    EXPECT_EQ(peNodeCycles(size_t{10}, dense), 10u + 4);
    EXPECT_EQ(peNodeCycles(size_t{10}, skip), 5u + 4);
    // ceil keeps at least one MAC for any connected node.
    skip.activationDensity = 0.01;
    EXPECT_EQ(peNodeCycles(size_t{10}, skip), 1u + 4);
}

TEST(ZeroSkip, ReducesIndividualCost)
{
    SyntheticParams params;
    params.numIndividuals = 1;
    params.numHidden = 40;
    Rng rng(6);
    const auto def = syntheticIrregularNet(params, rng);

    InaxConfig dense;
    InaxConfig skip = dense;
    skip.activationDensity = 0.6;
    const auto baseline = puIndividualCost(def, dense);
    const auto skipped = puIndividualCost(def, skip);
    EXPECT_LT(skipped.inferenceCycles, baseline.inferenceCycles);
    // Set-up streaming is unaffected: same genes move over the wire.
    EXPECT_EQ(skipped.setupCycles, baseline.setupCycles);
}

TEST(ZeroSkip, BadDensityError)
{
    InaxConfig cfg;
    cfg.activationDensity = 0.0;
    Status s = cfg.validate();
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("density"), std::string::npos);
    cfg.activationDensity = 1.5;
    s = cfg.validate();
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("density"), std::string::npos);
}

} // namespace
} // namespace e3
