/**
 * @file
 * Parameterized property tests sweeping whole families of inputs:
 * every suite environment, every activation, a grid of sparsities and
 * PE counts. These pin the invariants the rest of the system builds
 * on.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "e3/synthetic.hh"
#include "env/env_registry.hh"
#include "inax/pu.hh"
#include "inax/systolic.hh"
#include "neat/mutation.hh"
#include "nn/layering.hh"
#include "nn/net_stats.hh"
#include "nn/network.hh"
#include "nn/quantize.hh"

namespace e3 {
namespace {

// ---------------------------------------------------------------------
// Per-environment contract properties.
// ---------------------------------------------------------------------

class EnvProperty : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EnvProperty, RandomPolicyEpisodeTerminates)
{
    const EnvSpec &spec = envSpec(GetParam());
    auto env = spec.make();
    Rng rng(1);
    Observation obs = env->reset(rng);
    int steps = 0;
    bool done = false;
    while (!done && steps < env->maxEpisodeSteps()) {
        std::vector<double> outputs(spec.numOutputs);
        for (auto &o : outputs)
            o = rng.uniform();
        const StepResult r = env->step(decodeAction(spec, outputs));
        obs = r.observation;
        done = r.done;
        ++steps;
    }
    EXPECT_LE(steps, env->maxEpisodeSteps());
}

TEST_P(EnvProperty, ObservationsStayFinite)
{
    const EnvSpec &spec = envSpec(GetParam());
    auto env = spec.make();
    Rng rng(2);
    Observation obs = env->reset(rng);
    for (int t = 0; t < 200; ++t) {
        std::vector<double> outputs(spec.numOutputs);
        for (auto &o : outputs)
            o = rng.uniform();
        const StepResult r = env->step(decodeAction(spec, outputs));
        for (double v : r.observation)
            ASSERT_TRUE(std::isfinite(v)) << GetParam() << " step " << t;
        ASSERT_TRUE(std::isfinite(r.reward));
        if (r.done)
            break;
    }
}

TEST_P(EnvProperty, ObservationDimensionMatchesSpec)
{
    const EnvSpec &spec = envSpec(GetParam());
    auto env = spec.make();
    Rng rng(3);
    EXPECT_EQ(env->reset(rng).size(), spec.numInputs);
    EXPECT_EQ(env->observationSpace().size(), spec.numInputs);
}

TEST_P(EnvProperty, ResetIsSeedDeterministic)
{
    const EnvSpec &spec = envSpec(GetParam());
    auto a = spec.make();
    auto b = spec.make();
    Rng rngA(77), rngB(77);
    EXPECT_EQ(a->reset(rngA), b->reset(rngB));
}

INSTANTIATE_TEST_SUITE_P(
    Suite, EnvProperty,
    ::testing::Values("cartpole", "acrobot", "mountain_car",
                      "bipedal_walker", "lunar_lander", "pendulum",
                      "mountain_car_continuous"),
    [](const auto &info) { return info.param; });

// ---------------------------------------------------------------------
// Per-activation properties.
// ---------------------------------------------------------------------

class ActivationProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ActivationProperty, FiniteOverWideInputRange)
{
    const Activation act = activationFromIndex(GetParam());
    for (double x = -1e6; x <= 1e6; x = x == 0 ? 1e-6 : x * -1.7) {
        const double y = applyActivation(act, x);
        ASSERT_TRUE(std::isfinite(y))
            << activationName(act) << "(" << x << ")";
    }
}

TEST_P(ActivationProperty, DeterministicAndNameRoundTrips)
{
    const Activation act = activationFromIndex(GetParam());
    EXPECT_DOUBLE_EQ(applyActivation(act, 0.37),
                     applyActivation(act, 0.37));
    Result<Activation> parsed = parseActivation(activationName(act));
    ASSERT_TRUE(parsed.ok()) << parsed.message();
    EXPECT_EQ(parsed.value(), act);
}

INSTANTIATE_TEST_SUITE_P(All, ActivationProperty,
                         ::testing::Range(0, numActivations));

// ---------------------------------------------------------------------
// Synthetic-network properties across the sparsity grid.
// ---------------------------------------------------------------------

class SparsityProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(SparsityProperty, NetsAreAcyclicRunnableAndRequired)
{
    SyntheticParams params;
    params.numIndividuals = 5;
    params.sparsity = GetParam();
    Rng rng(11);
    for (int i = 0; i < 5; ++i) {
        const auto def = syntheticIrregularNet(params, rng);
        ASSERT_TRUE(isAcyclic(def));
        auto net = Network::create(def);
        const auto out = net.activate(
            std::vector<double>(params.numInputs, 0.25));
        ASSERT_EQ(out.size(), params.numOutputs);
        for (double o : out)
            ASSERT_TRUE(std::isfinite(o));
    }
}

TEST_P(SparsityProperty, DenseCounterpartCoversIrregularWork)
{
    SyntheticParams params;
    params.sparsity = GetParam();
    params.numIndividuals = 3;
    Rng rng(13);
    for (int i = 0; i < 3; ++i) {
        const auto def = syntheticIrregularNet(params, rng);
        const auto eq = denseEquivalent(def);
        const auto stats = computeNetStats(def);
        ASSERT_GE(eq.denseConnections(), stats.activeConnections);
    }
}

INSTANTIATE_TEST_SUITE_P(Grid, SparsityProperty,
                         ::testing::Values(0.05, 0.1, 0.2, 0.4, 0.7,
                                           1.0));

// ---------------------------------------------------------------------
// Scheduling invariants across PE counts.
// ---------------------------------------------------------------------

class PeCountProperty : public ::testing::TestWithParam<size_t>
{
};

TEST_P(PeCountProperty, ActiveNeverExceedsProvisioned)
{
    SyntheticParams params;
    params.numIndividuals = 4;
    Rng rng(17);
    InaxConfig cfg;
    cfg.numPEs = GetParam();
    for (int i = 0; i < 4; ++i) {
        const auto def = syntheticIrregularNet(params, rng);
        const auto cost = puIndividualCost(def, cfg);
        ASSERT_LE(cost.peActiveCycles,
                  cost.inferenceCycles * cfg.numPEs);
        ASSERT_GT(cost.inferenceCycles, 0u);
    }
}

TEST_P(PeCountProperty, InaxNeverSlowerThanSystolicOnSparse)
{
    SyntheticParams params;
    params.numIndividuals = 3;
    params.sparsity = 0.2;
    Rng rng(19);
    InaxConfig cfg;
    cfg.numPEs = GetParam();
    for (int i = 0; i < 3; ++i) {
        const auto def = syntheticIrregularNet(params, rng);
        ASSERT_LE(puIndividualCost(def, cfg).inferenceCycles,
                  systolicIndividualCost(def, cfg).inferenceCycles);
    }
}

INSTANTIATE_TEST_SUITE_P(Counts, PeCountProperty,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 64));

// ---------------------------------------------------------------------
// Mutation invariants across structural-rate settings.
// ---------------------------------------------------------------------

class MutationRateProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(MutationRateProperty, LongMutationChainsStayWellFormed)
{
    NeatConfig cfg = NeatConfig::forTask(4, 2, 1.0);
    cfg.nodeAddProb = GetParam();
    cfg.connAddProb = GetParam();
    cfg.nodeDeleteProb = GetParam() / 2;
    cfg.connDeleteProb = GetParam() / 2;

    Rng rng(23);
    InnovationTracker innovation(2);
    Genome genome(0);
    genome.configureNew(cfg, rng);
    for (int i = 0; i < 60; ++i) {
        mutateGenome(genome, cfg, rng, innovation);
        ASSERT_EQ(genome.nodes.count(0), 1u);
        ASSERT_EQ(genome.nodes.count(1), 1u);
        const auto def = genome.toNetworkDef(cfg);
        ASSERT_TRUE(isAcyclic(def));
        auto net = Network::create(def);
        const auto out = net.activate({0.1, 0.2, 0.3, 0.4});
        ASSERT_EQ(out.size(), 2u);
    }
}

INSTANTIATE_TEST_SUITE_P(Rates, MutationRateProperty,
                         ::testing::Values(0.1, 0.3, 0.5, 0.9));

// ---------------------------------------------------------------------
// Quantization properties across the bit-width grid.
// ---------------------------------------------------------------------

class BitWidthProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(BitWidthProperty, QuantizedOutputsStayOnGridAndFinite)
{
    const int bits = GetParam();
    const FixedPointFormat fmt{bits, bits / 2};
    SyntheticParams params;
    params.numIndividuals = 2;
    Rng rng(41);
    for (int i = 0; i < 2; ++i) {
        const auto def = syntheticIrregularNet(params, rng);
        auto qnet = Network::create(def, {.quantization = fmt});
        Rng inputRng(43);
        for (int s = 0; s < 5; ++s) {
            std::vector<double> x(params.numInputs);
            for (auto &v : x)
                v = inputRng.uniform(-1.0, 1.0);
            for (double o : qnet.activate(x)) {
                ASSERT_TRUE(std::isfinite(o));
                ASSERT_DOUBLE_EQ(o, fmt.quantize(o));
                ASSERT_GE(o, fmt.minValue());
                ASSERT_LE(o, fmt.maxValue());
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Bits, BitWidthProperty,
                         ::testing::Values(4, 6, 8, 12, 16, 24, 32));

// ---------------------------------------------------------------------
// Recurrent-network properties across random cyclic genomes.
// ---------------------------------------------------------------------

class RecurrentSeedProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RecurrentSeedProperty, CyclicEvolutionStaysEvaluable)
{
    NeatConfig cfg = NeatConfig::forTask(3, 2, 1.0);
    cfg.feedForward = false;
    Rng rng(GetParam());
    InnovationTracker innovation(2);
    Genome genome(0);
    genome.configureNew(cfg, rng);
    for (int i = 0; i < 40; ++i)
        mutateGenome(genome, cfg, rng, innovation);

    NetworkCompileOptions recurrent;
    recurrent.recurrent = true;
    auto net = Network::create(genome.toNetworkDef(cfg), recurrent);
    for (int t = 0; t < 20; ++t) {
        const auto out = net.activate({0.1, -0.2, 0.3});
        ASSERT_EQ(out.size(), 2u);
        for (double o : out)
            ASSERT_TRUE(std::isfinite(o));
    }
    // reset() restores the initial trajectory exactly.
    net.reset();
    const auto first = net.activate({0.1, -0.2, 0.3});
    net.reset();
    ASSERT_EQ(net.activate({0.1, -0.2, 0.3}), first);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecurrentSeedProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

} // namespace
} // namespace e3
