/**
 * @file
 * End-to-end NEAT sanity check: evolve the XOR function. XOR is not
 * linearly separable, so solving it requires NEAT to invent at least one
 * hidden node — exercising structural mutation, speciation and
 * crossover together. This is the canonical acceptance test from the
 * original NEAT paper.
 */

#include <gtest/gtest.h>

#include "neat/population.hh"

namespace e3 {
namespace {

/** 4 - sum of squared errors over the four XOR cases (max 4.0). */
double
xorFitness(const Genome &genome, const NeatConfig &cfg)
{
    auto net = Network::create(genome.toNetworkDef(cfg));
    static const double cases[4][3] = {
        {0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}};
    double fitness = 4.0;
    for (const auto &c : cases) {
        const double out = net.activate({c[0], c[1]})[0];
        fitness -= (out - c[2]) * (out - c[2]);
    }
    return fitness;
}

TEST(NeatXor, EvolvesASolution)
{
    auto cfg = NeatConfig::forTask(2, 1, 3.9);
    cfg.populationSize = 150;
    cfg.nodeAddProb = 0.2;
    cfg.connAddProb = 0.5;

    // Try a couple of seeds: NEAT is stochastic, and neat-python's own
    // XOR example occasionally needs a restart too.
    bool solved = false;
    int usedGenerations = 0;
    for (uint64_t seed : {101u, 202u, 303u}) {
        Population pop(cfg, seed);
        for (int gen = 0; gen < 120 && !solved; ++gen) {
            pop.evaluateAll([&](const Genome &g) {
                return xorFitness(g, cfg);
            });
            if (pop.solved()) {
                solved = true;
                usedGenerations = pop.generation();
                // The winning network must actually compute XOR.
                auto net = Network::create(
                    pop.best().toNetworkDef(cfg));
                EXPECT_GT(net.activate({0, 1})[0], 0.5);
                EXPECT_GT(net.activate({1, 0})[0], 0.5);
                EXPECT_LT(net.activate({0, 0})[0], 0.5);
                EXPECT_LT(net.activate({1, 1})[0], 0.5);
                // XOR needs hidden structure.
                EXPECT_GE(pop.best().nodes.size(), 2u);
                break;
            }
            pop.advance();
        }
        if (solved)
            break;
    }
    EXPECT_TRUE(solved) << "NEAT failed to solve XOR on three seeds";
    (void)usedGenerations;
}

} // namespace
} // namespace e3
