#include "neat/population.hh"

#include <gtest/gtest.h>

namespace e3 {
namespace {

NeatConfig
smallConfig()
{
    auto cfg = NeatConfig::forTask(2, 1, 3.9);
    cfg.populationSize = 30;
    return cfg;
}

TEST(Population, StartsSpeciatedAtGenerationZero)
{
    Population pop(smallConfig(), 1);
    EXPECT_EQ(pop.generation(), 0);
    EXPECT_EQ(pop.genomes().size(), 30u);
    EXPECT_GE(pop.speciesSet().count(), 1u);
}

TEST(Population, EvaluateAllAssignsFitness)
{
    Population pop(smallConfig(), 2);
    pop.evaluateAll([](const Genome &g) {
        return static_cast<double>(g.conns.size());
    });
    for (const auto &[key, genome] : pop.genomes())
        EXPECT_TRUE(genome.evaluated());
}

TEST(Population, BestReturnsMaximum)
{
    Population pop(smallConfig(), 3);
    pop.evaluateAll([](const Genome &g) {
        return static_cast<double>(g.key());
    });
    int maxKey = 0;
    for (const auto &[key, genome] : pop.genomes())
        maxKey = std::max(maxKey, key);
    EXPECT_EQ(pop.best().key(), maxKey);
}

TEST(Population, SolvedTracksThreshold)
{
    Population pop(smallConfig(), 4); // threshold 3.9
    pop.evaluateAll([](const Genome &) { return 1.0; });
    EXPECT_FALSE(pop.solved());
    pop.evaluateAll([](const Genome &) { return 4.0; });
    EXPECT_TRUE(pop.solved());
}

TEST(Population, AdvanceProducesNewGeneration)
{
    Population pop(smallConfig(), 5);
    pop.evaluateAll([](const Genome &g) {
        return static_cast<double>(g.key() % 5);
    });
    pop.advance();
    EXPECT_EQ(pop.generation(), 1);
    EXPECT_EQ(pop.genomes().size(), 30u);
    for (const auto &[key, genome] : pop.genomes()) {
        // Elites carry their old fitness; children are unevaluated.
        (void)genome;
    }
}

TEST(PopulationDeath, AdvanceBeforeEvaluationPanics)
{
    Population pop(smallConfig(), 6);
    EXPECT_DEATH(pop.advance(), "evaluat");
}

TEST(Population, DeterministicAcrossRuns)
{
    auto run = [](uint64_t seed) {
        Population pop(smallConfig(), seed);
        double trace = 0.0;
        for (int gen = 0; gen < 3; ++gen) {
            pop.evaluateAll([](const Genome &g) {
                double w = 0.0;
                for (const auto &[key, gene] : g.conns)
                    w += gene.enabled ? gene.weight : 0.0;
                return w;
            });
            trace += pop.best().fitness;
            pop.advance();
        }
        return trace;
    };
    EXPECT_DOUBLE_EQ(run(42), run(42));
    EXPECT_NE(run(42), run(43));
}

TEST(Population, StatsSummarizeStructure)
{
    Population pop(smallConfig(), 7);
    pop.evaluateAll([](const Genome &) { return 1.0; });
    const auto stats = pop.stats();
    EXPECT_EQ(stats.generation, 0);
    EXPECT_EQ(stats.nodeCounts.count(), 30u);
    EXPECT_DOUBLE_EQ(stats.bestFitness, 1.0);
    EXPECT_DOUBLE_EQ(stats.meanFitness, 1.0);
    // Gen-0 genomes: 1 node (the output), 2 conns, density 1.0.
    EXPECT_NEAR(stats.densities.mean(), 1.0, 1e-9);
}

TEST(Population, EvolutionGrowsStructureOverTime)
{
    auto cfg = smallConfig();
    cfg.fitnessThreshold = 1e9; // never stop
    Population pop(cfg, 8);
    // Reward structural size: evolution should oblige.
    auto sizeFitness = [](const Genome &g) {
        return static_cast<double>(g.size().first * 3 + g.size().second);
    };
    pop.evaluateAll(sizeFitness);
    const double startNodes = pop.stats().nodeCounts.mean();
    for (int gen = 0; gen < 10; ++gen) {
        pop.advance();
        pop.evaluateAll(sizeFitness);
    }
    EXPECT_GT(pop.stats().nodeCounts.mean(), startNodes);
}

TEST(Population, StatsFoldSuppliedNetStatsInGenomeOrder)
{
    auto cfg = smallConfig();
    cfg.fitnessThreshold = 1e9;
    Population pop(cfg, 9);
    auto sizeFitness = [](const Genome &g) {
        return static_cast<double>(g.size().first * 3 + g.size().second);
    };
    for (int gen = 0; gen < 6; ++gen) {
        pop.evaluateAll(sizeFitness);
        pop.advance();
    }
    pop.evaluateAll(sizeFitness);

    // CreateNet's NetStats, one per genome in genomes() order, give
    // the same summary as recomputing them, bit for bit.
    std::vector<NetStats> netStats;
    for (const auto &[key, genome] : pop.genomes())
        netStats.push_back(computeNetStats(genome.toNetworkDef(cfg)));
    const GenerationStats supplied = pop.stats(netStats);
    const GenerationStats recomputed = pop.stats();
    for (const auto &[a, b] :
         {std::pair{&supplied.nodeCounts, &recomputed.nodeCounts},
          std::pair{&supplied.connCounts, &recomputed.connCounts},
          std::pair{&supplied.densities, &recomputed.densities}}) {
        EXPECT_EQ(a->count(), b->count());
        EXPECT_EQ(a->mean(), b->mean());
        EXPECT_EQ(a->variance(), b->variance());
        EXPECT_EQ(a->min(), b->min());
        EXPECT_EQ(a->max(), b->max());
    }
    EXPECT_EQ(supplied.bestFitness, recomputed.bestFitness);
    EXPECT_EQ(supplied.meanFitness, recomputed.meanFitness);
    EXPECT_EQ(supplied.numSpecies, recomputed.numSpecies);

    // Only the supplied values are folded: doubling every node count
    // doubles the mean.
    for (NetStats &ns : netStats)
        ns.activeNodes *= 2;
    EXPECT_EQ(pop.stats(netStats).nodeCounts.mean(),
              2.0 * recomputed.nodeCounts.mean());
}

TEST(PopulationDeath, StatsRejectMisalignedNetStats)
{
    Population pop(smallConfig(), 10);
    pop.evaluateAll([](const Genome &) { return 1.0; });
    EXPECT_DEATH(pop.stats(std::vector<NetStats>(3)), "stats for 3");
}

} // namespace
} // namespace e3
