#include "neat/mutation.hh"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/layering.hh"

namespace e3 {
namespace {

struct Fixture
{
    NeatConfig cfg = NeatConfig::forTask(2, 1, 1.0);
    Rng rng{42};
    InnovationTracker innovation{1}; // one output -> hidden ids from 1
    Genome genome{0};

    Fixture() { genome.configureNew(cfg, rng); }
};

TEST(Mutation, AddNodeSplitsConnection)
{
    Fixture f;
    const size_t before = f.genome.conns.size();
    const int id = mutateAddNode(f.genome, f.cfg, f.rng, f.innovation);
    ASSERT_GE(id, 1);
    EXPECT_EQ(f.genome.nodes.size(), 2u);
    EXPECT_EQ(f.genome.conns.size(), before + 2);

    // Find the disabled (split) gene and verify the halves.
    const ConnGene *split = nullptr;
    for (const auto &[key, gene] : f.genome.conns) {
        if (!gene.enabled)
            split = &gene;
    }
    ASSERT_NE(split, nullptr);
    const auto &inHalf = f.genome.conns.at({split->key.first, id});
    const auto &outHalf = f.genome.conns.at({id, split->key.second});
    EXPECT_DOUBLE_EQ(inHalf.weight, 1.0);
    EXPECT_DOUBLE_EQ(outHalf.weight, split->weight);
    EXPECT_TRUE(inHalf.enabled);
    EXPECT_TRUE(outHalf.enabled);
}

TEST(Mutation, AddNodeWithoutConnectionsIsNoop)
{
    Fixture f;
    f.genome.conns.clear();
    EXPECT_EQ(mutateAddNode(f.genome, f.cfg, f.rng, f.innovation), -1);
    EXPECT_EQ(f.genome.nodes.size(), 1u);
}

TEST(Mutation, AddConnectionPreservesAcyclicity)
{
    Fixture f;
    // Grow some structure first.
    for (int i = 0; i < 20; ++i) {
        mutateAddNode(f.genome, f.cfg, f.rng, f.innovation);
        mutateAddConnection(f.genome, f.cfg, f.rng);
    }
    const auto def = f.genome.toNetworkDef(f.cfg);
    EXPECT_TRUE(isAcyclic(def));
}

TEST(Mutation, AddConnectionReenablesDisabled)
{
    Fixture f;
    // Disable the only connections; repeated add attempts must re-enable
    // one of them eventually (only 3 candidate pairs exist for 2 in /
    // 1 out with no hidden: (-1,0), (-2,0), (0,0)-rejected).
    for (auto &[key, gene] : f.genome.conns)
        gene.enabled = false;
    bool changed = false;
    for (int i = 0; i < 50 && !changed; ++i)
        changed = mutateAddConnection(f.genome, f.cfg, f.rng);
    EXPECT_TRUE(changed);
    size_t enabled = 0;
    for (const auto &[key, gene] : f.genome.conns)
        enabled += gene.enabled ? 1 : 0;
    EXPECT_GE(enabled, 1u);
}

TEST(Mutation, DeleteNodeRemovesTouchingConnections)
{
    Fixture f;
    const int id = mutateAddNode(f.genome, f.cfg, f.rng, f.innovation);
    ASSERT_GE(id, 1);
    const int removed = mutateDeleteNode(f.genome, f.cfg, f.rng);
    EXPECT_EQ(removed, id); // only one hidden node exists
    EXPECT_EQ(f.genome.nodes.count(id), 0u);
    for (const auto &[key, gene] : f.genome.conns) {
        EXPECT_NE(key.first, id);
        EXPECT_NE(key.second, id);
    }
}

TEST(Mutation, DeleteNodeNeverTouchesOutputs)
{
    Fixture f;
    for (int i = 0; i < 20; ++i)
        mutateDeleteNode(f.genome, f.cfg, f.rng);
    EXPECT_EQ(f.genome.nodes.count(0), 1u);
}

TEST(Mutation, DeleteConnection)
{
    Fixture f;
    const size_t before = f.genome.conns.size();
    EXPECT_TRUE(mutateDeleteConnection(f.genome, f.rng));
    EXPECT_EQ(f.genome.conns.size(), before - 1);
    f.genome.conns.clear();
    EXPECT_FALSE(mutateDeleteConnection(f.genome, f.rng));
}

TEST(Mutation, CreatesCycleDetection)
{
    Fixture f;
    const int id = mutateAddNode(f.genome, f.cfg, f.rng, f.innovation);
    ASSERT_GE(id, 1);
    // id -> 0 exists; adding 0 -> id closes a cycle.
    EXPECT_TRUE(createsCycle(f.genome, {0, id}));
    EXPECT_TRUE(createsCycle(f.genome, {5, 5})); // self-loop
    EXPECT_FALSE(createsCycle(f.genome, {-1, id}));
}

TEST(Mutation, FullPassKeepsGenomeWellFormed)
{
    Fixture f;
    for (int i = 0; i < 100; ++i) {
        mutateGenome(f.genome, f.cfg, f.rng, f.innovation);
        // Outputs intact, weights in range, network decodable.
        ASSERT_EQ(f.genome.nodes.count(0), 1u);
        for (const auto &[key, gene] : f.genome.conns) {
            ASSERT_GE(gene.weight, f.cfg.weightMin);
            ASSERT_LE(gene.weight, f.cfg.weightMax);
        }
        const auto def = f.genome.toNetworkDef(f.cfg);
        ASSERT_TRUE(isAcyclic(def));
        auto net = Network::create(def);
        const auto out = net.activate({0.3, -0.3});
        ASSERT_EQ(out.size(), 1u);
        ASSERT_TRUE(std::isfinite(out[0]));
    }
}

TEST(Mutation, StructuralRatesDriveGrowth)
{
    // With add-node probability 1 and no deletions, every pass adds a
    // node; with all-zero structural rates the topology is frozen.
    Fixture f;
    auto grow = f.cfg;
    grow.nodeAddProb = 1.0;
    grow.nodeDeleteProb = 0.0;
    grow.connAddProb = 0.0;
    grow.connDeleteProb = 0.0;
    for (int i = 0; i < 5; ++i)
        mutateGenome(f.genome, grow, f.rng, f.innovation);
    EXPECT_EQ(f.genome.nodes.size(), 1u + 5u);

    auto frozen = f.cfg;
    frozen.nodeAddProb = frozen.nodeDeleteProb = 0.0;
    frozen.connAddProb = frozen.connDeleteProb = 0.0;
    const size_t nodes = f.genome.nodes.size();
    const size_t conns = f.genome.conns.size();
    for (int i = 0; i < 5; ++i)
        mutateGenome(f.genome, frozen, f.rng, f.innovation);
    EXPECT_EQ(f.genome.nodes.size(), nodes);
    EXPECT_EQ(f.genome.conns.size(), conns);
}

} // namespace
} // namespace e3
