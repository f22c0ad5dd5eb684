#include "neat/crossover.hh"

#include <gtest/gtest.h>

#include "neat/mutation.hh"

namespace e3 {
namespace {

TEST(Crossover, ChildGenesComeFromParents)
{
    const auto cfg = NeatConfig::forTask(2, 1, 1.0);
    Rng rng(1);
    Genome a(0), b(1);
    a.configureNew(cfg, rng);
    b.configureNew(cfg, rng);
    a.fitness = 2.0;
    b.fitness = 1.0;

    const Genome child = crossoverGenomes(7, a, b, rng);
    EXPECT_EQ(child.key(), 7);
    EXPECT_FALSE(child.evaluated());
    for (const auto &[key, gene] : child.conns) {
        const double wa = a.conns.at(key).weight;
        const double wb = b.conns.at(key).weight;
        EXPECT_TRUE(gene.weight == wa || gene.weight == wb);
    }
}

TEST(Crossover, DisjointGenesFromFitterParentOnly)
{
    const auto cfg = NeatConfig::forTask(2, 1, 1.0);
    Rng rng(2);
    InnovationTracker innovation(1);
    Genome a(0), b(1);
    a.configureNew(cfg, rng);
    b = a;
    // Give `a` extra structure that `b` lacks.
    const int id = mutateAddNode(a, cfg, rng, innovation);
    ASSERT_GE(id, 1);
    a.fitness = 5.0;
    b.fitness = 1.0;

    const Genome childOfFit = crossoverGenomes(2, a, b, rng);
    EXPECT_EQ(childOfFit.nodes.count(id), 1u);

    // Same parents, fitness flipped: the extra structure is disjoint in
    // the *less fit* parent and must not be inherited.
    a.fitness = 1.0;
    b.fitness = 5.0;
    const Genome childOfWeak = crossoverGenomes(3, a, b, rng);
    EXPECT_EQ(childOfWeak.nodes.count(id), 0u);
}

TEST(Crossover, ArgumentOrderDoesNotPickParent)
{
    const auto cfg = NeatConfig::forTask(1, 1, 1.0);
    Rng rngA(3), rngB(3);
    InnovationTracker innovation(1);
    Genome a(0), b(1);
    a.configureNew(cfg, rngA);
    b = a;
    Rng tmp(9);
    mutateAddNode(a, cfg, tmp, innovation);
    a.fitness = 9.0;
    b.fitness = 1.0;

    const Genome c1 = crossoverGenomes(5, a, b, rngA);
    const Genome c2 = crossoverGenomes(5, b, a, rngB);
    EXPECT_EQ(c1.nodes.size(), c2.nodes.size());
    EXPECT_EQ(c1.conns.size(), c2.conns.size());
}

TEST(Crossover, ChildDecodable)
{
    const auto cfg = NeatConfig::forTask(3, 2, 1.0);
    Rng rng(4);
    InnovationTracker innovation(2);
    Genome a(0), b(1);
    a.configureNew(cfg, rng);
    b.configureNew(cfg, rng);
    for (int i = 0; i < 10; ++i) {
        mutateGenome(a, cfg, rng, innovation);
        mutateGenome(b, cfg, rng, innovation);
    }
    a.fitness = 1.0;
    b.fitness = 2.0;
    const Genome child = crossoverGenomes(9, a, b, rng);
    auto net = Network::create(child.toNetworkDef(cfg));
    const auto out = net.activate({0.1, 0.2, 0.3});
    ASSERT_EQ(out.size(), 2u);
}

TEST(CrossoverDeath, UnevaluatedParentsPanic)
{
    const auto cfg = NeatConfig::forTask(1, 1, 1.0);
    Rng rng(5);
    Genome a(0), b(1);
    a.configureNew(cfg, rng);
    b.configureNew(cfg, rng);
    EXPECT_DEATH(crossoverGenomes(2, a, b, rng), "evaluated");
}

} // namespace
} // namespace e3
