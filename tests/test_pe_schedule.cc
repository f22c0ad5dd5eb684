/**
 * @file
 * PE cost model and PU wave-scheduling tests, pinned against
 * hand-computed cycle counts.
 */

#include <gtest/gtest.h>

#include "inax/pe.hh"
#include "inax/schedule.hh"

namespace e3 {
namespace {

InaxConfig
config(size_t pes)
{
    InaxConfig cfg;
    cfg.numPEs = pes;
    // Pin overheads for easy hand computation.
    cfg.pePipelineLatency = 4;
    cfg.layerSyncCycles = 2;
    return cfg;
}

TEST(Pe, NodeCyclesAreDegreePlusPipeline)
{
    const auto cfg = config(1);
    EXPECT_EQ(peNodeCycles(size_t{0}, cfg), 4u); // bias-only node
    EXPECT_EQ(peNodeCycles(size_t{5}, cfg), 9u);
    EXPECT_EQ(peNodeCycles(size_t{100}, cfg), 104u);
}

TEST(Schedule, SinglePeExecutesSequentially)
{
    // One layer of three nodes with in-degrees 2, 3, 5.
    const auto cost =
        scheduleInference({{2, 3, 5}}, config(1));
    // (2+4) + (3+4) + (5+4) + layer sync 2 = 24.
    EXPECT_EQ(cost.cycles, 24u);
    EXPECT_EQ(cost.peActiveCycles, 22u);
    EXPECT_EQ(cost.waves, 3u);
}

TEST(Schedule, WaveSynchronizesOnSlowestNode)
{
    // Two PEs, nodes 2 and 5: one wave of max(6, 9) = 9 cycles.
    const auto cost = scheduleInference({{2, 5}}, config(2));
    EXPECT_EQ(cost.cycles, 9u + 2u);
    EXPECT_EQ(cost.peActiveCycles, 6u + 9u);
    EXPECT_EQ(cost.waves, 1u);
    EXPECT_NEAR(cost.peUtilization(2), 15.0 / 22.0, 1e-12);
}

TEST(Schedule, NonAlignedLayerNeedsExtraWave)
{
    // Three identical nodes on two PEs: ceil(3/2) = 2 waves; the
    // second wave runs one PE while the other idles — the paper's
    // "PEs alignment" issue.
    const auto cost = scheduleInference({{3, 3, 3}}, config(2));
    EXPECT_EQ(cost.waves, 2u);
    EXPECT_EQ(cost.cycles, 7u + 7u + 2u);
    EXPECT_EQ(cost.peActiveCycles, 21u);
    EXPECT_LT(cost.peUtilization(2), 1.0);
}

TEST(Schedule, LayersSerialize)
{
    const auto cost = scheduleInference({{2}, {3}}, config(4));
    // Layer 1: 6 + sync 2; layer 2: 7 + sync 2.
    EXPECT_EQ(cost.cycles, 6u + 2u + 7u + 2u);
    EXPECT_EQ(cost.waves, 2u);
}

TEST(Schedule, MorePEsNeverSlower)
{
    const std::vector<std::vector<size_t>> layers{
        {4, 2, 7, 1, 3}, {2, 2}, {6, 1, 1}};
    uint64_t prev = UINT64_MAX;
    for (size_t pes = 1; pes <= 8; ++pes) {
        const auto cost = scheduleInference(layers, config(pes));
        EXPECT_LE(cost.cycles, prev) << "at " << pes << " PEs";
        prev = cost.cycles;
        // Active cycles are workload-invariant.
        EXPECT_EQ(cost.peActiveCycles, 4u + 2 + 7 + 1 + 3 + 2 + 2 + 6 +
                                           1 + 1 + 10 * 4);
    }
}

TEST(Schedule, CompiledNetworkMatchesProfileForm)
{
    // Analyze a real network and check the schedule read off its
    // NetStats agrees with the hand-written in-degree profile.
    auto def = NetworkDef::empty(2, 1);
    def.nodes.push_back({1, 0.0, Activation::Sigmoid,
                         Aggregation::Sum});
    def.conns = {{-1, 1, 1.0}, {-2, 1, 1.0}, {1, 0, 1.0},
                 {-1, 0, 1.0}};
    const auto cfg = config(2);
    const auto a = scheduleNetwork(computeNetStats(def), cfg);
    const auto b = scheduleInference({{2}, {2}}, cfg);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.peActiveCycles, b.peActiveCycles);
}

TEST(Schedule, PeUtilizationOfEmptyWorkIsOne)
{
    const InferenceCost cost;
    EXPECT_DOUBLE_EQ(cost.peUtilization(8), 1.0);
}

} // namespace
} // namespace e3
