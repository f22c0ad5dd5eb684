/**
 * @file
 * Unit tests for the verify batch-plan pass (E3V301–E3V306): every
 * rule fires on a targeted mutation of a freshly compiled plan and
 * stays silent on the unmutated plan, the fold check is skipped on
 * structurally broken plans, the text form round-trips exactly, and
 * the nn-side invariant checker agrees with the verifier.
 */

#include "verify/batch_check.hh"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/network.hh"

namespace e3::verify {
namespace {

bool
hasRule(const Report &report, const std::string &id)
{
    for (const auto &d : report.diagnostics) {
        if (d.ruleId == id)
            return true;
    }
    return false;
}

/** 2-in/1-out def with one hidden node: two segments per lane. */
NetworkDef
twoLayerDef()
{
    NetworkDef def = NetworkDef::empty(2, 1);
    def.nodes[0].act = Activation::Identity;
    def.nodes.push_back(
        {5, 0.25, Activation::Sigmoid, Aggregation::Sum});
    def.conns.push_back({-1, 5, 0.8});
    def.conns.push_back({-2, 5, -0.6});
    def.conns.push_back({5, 0, 1.5});
    def.conns.push_back({-1, 0, 0.3});
    return def;
}

/** 2-in/2-out def, for output-map mutations. */
NetworkDef
twoOutputDef()
{
    NetworkDef def = NetworkDef::empty(2, 2);
    def.conns.push_back({-1, 0, 0.5});
    def.conns.push_back({-2, 1, -0.5});
    return def;
}

/** 2-in/1-out def with no hidden node: a one-segment lane. */
NetworkDef
directDef()
{
    NetworkDef def = NetworkDef::empty(2, 1);
    def.conns.push_back({-2, 0, 0.9});
    return def;
}

/** Compile @p defs and hand back a mutable copy of the plan. */
BatchPlan
compiledPlan(const std::vector<NetworkDef> &defs)
{
    Result<std::unique_ptr<BatchNetwork>> compiled =
        compilePopulation(defs);
    EXPECT_TRUE(compiled.ok()) << compiled.message();
    return (*compiled)->plan();
}

// --- clean plans are silent ---

TEST(BatchCheck, CleanPopulationPlanIsClean)
{
    const std::vector<NetworkDef> defs = {twoLayerDef(), directDef(),
                                          twoLayerDef()};
    const BatchPlan plan = compiledPlan(defs);
    EXPECT_TRUE(verifyBatchPlan(plan, defs).empty());
    EXPECT_TRUE(checkPlanInvariants(plan).ok());
}

TEST(BatchCheck, CleanReplicatedPlanIsClean)
{
    const NetworkDef def = twoLayerDef();
    Result<std::unique_ptr<BatchNetwork>> compiled =
        compileReplicated(def, 4);
    ASSERT_TRUE(compiled.ok()) << compiled.message();
    const BatchPlan &plan = (*compiled)->plan();
    EXPECT_EQ(plan.lanes.size(), 4u);
    EXPECT_TRUE(verifyBatchPlan(plan, {def}).empty());
}

// --- E3V301: indices out of bounds ---

TEST(BatchCheck, OpSrcSlotOutOfRangeIsE3V301)
{
    BatchPlan plan = compiledPlan({twoLayerDef()});
    plan.ops[0].srcSlot = 1000;
    const Report r = verifyBatchPlanStructure(plan);
    EXPECT_TRUE(hasRule(r, rules::kBatchOpOutOfBounds));
    EXPECT_FALSE(checkPlanInvariants(plan).ok());
}

TEST(BatchCheck, NodeOpRangeOutOfBoundsIsE3V301)
{
    BatchPlan plan = compiledPlan({twoLayerDef()});
    plan.nodes[0].opEnd =
        static_cast<uint32_t>(plan.ops.size()) + 5;
    EXPECT_TRUE(hasRule(verifyBatchPlanStructure(plan),
                        rules::kBatchOpOutOfBounds));
}

TEST(BatchCheck, NodeDstSlotOutOfRangeIsE3V301)
{
    BatchPlan plan = compiledPlan({twoLayerDef()});
    plan.nodes[0].dstSlot = plan.lanes[0].slotCount;
    EXPECT_TRUE(hasRule(verifyBatchPlanStructure(plan),
                        rules::kBatchOpOutOfBounds));
    EXPECT_FALSE(checkPlanInvariants(plan).ok());
}

// --- E3V302: segments must partition the node list ---

TEST(BatchCheck, SegmentOverlapIsE3V302)
{
    BatchPlan plan = compiledPlan({twoLayerDef()});
    ASSERT_GE(plan.segments.size(), 2u);
    plan.segments[1].nodeBegin = 0; // re-runs node 0: overlap
    EXPECT_TRUE(hasRule(verifyBatchPlanStructure(plan),
                        rules::kBatchSegmentPartition));
    EXPECT_FALSE(checkPlanInvariants(plan).ok());
}

TEST(BatchCheck, EmptySegmentIsE3V302)
{
    BatchPlan plan = compiledPlan({twoLayerDef()});
    plan.segments[0].nodeEnd = plan.segments[0].nodeBegin;
    EXPECT_TRUE(hasRule(verifyBatchPlanStructure(plan),
                        rules::kBatchSegmentPartition));
}

TEST(BatchCheck, LaneSegmentRangeBeyondTableIsE3V302)
{
    BatchPlan plan = compiledPlan({twoLayerDef()});
    plan.lanes[0].segEnd =
        static_cast<uint32_t>(plan.segments.size()) + 1;
    EXPECT_TRUE(hasRule(verifyBatchPlanStructure(plan),
                        rules::kBatchSegmentPartition));
}

TEST(BatchCheck, PlanWithNoLanesIsE3V302)
{
    BatchPlan plan = compiledPlan({twoLayerDef()});
    plan.lanes.clear();
    EXPECT_TRUE(hasRule(verifyBatchPlanStructure(plan),
                        rules::kBatchSegmentPartition));
}

// --- E3V303: lane arena regions must stay disjoint ---

TEST(BatchCheck, LaneArenaOverlapIsE3V303)
{
    BatchPlan plan = compiledPlan({twoLayerDef(), twoLayerDef()});
    ASSERT_EQ(plan.lanes.size(), 2u);
    plan.lanes[1].valueBase = plan.lanes[0].valueBase + 1;
    const Report r = verifyBatchPlanStructure(plan);
    EXPECT_TRUE(hasRule(r, rules::kBatchLaneOverlap));
    EXPECT_FALSE(checkPlanInvariants(plan).ok());
}

TEST(BatchCheck, LaneRegionBeyondArenaIsE3V303)
{
    BatchPlan plan = compiledPlan({twoLayerDef()});
    plan.lanes[0].valueBase = static_cast<uint32_t>(plan.arenaSize);
    EXPECT_TRUE(hasRule(verifyBatchPlanStructure(plan),
                        rules::kBatchLaneOverlap));
}

// --- E3V304: dispatch-table completeness ---

TEST(BatchCheck, UnknownActivationIsE3V304)
{
    BatchPlan plan = compiledPlan({twoLayerDef()});
    plan.segments[0].act = static_cast<Activation>(99);
    EXPECT_TRUE(hasRule(verifyBatchPlanStructure(plan),
                        rules::kBatchActivationUnknown));
    EXPECT_FALSE(checkPlanInvariants(plan).ok());
}

TEST(BatchCheck, UnknownAggregationIsE3V304)
{
    BatchPlan plan = compiledPlan({twoLayerDef()});
    plan.segments[0].agg = static_cast<Aggregation>(-1);
    EXPECT_TRUE(hasRule(verifyBatchPlanStructure(plan),
                        rules::kBatchActivationUnknown));
}

// --- E3V305: output map in range and injective ---

TEST(BatchCheck, OutputSlotOutOfRangeIsE3V305)
{
    BatchPlan plan = compiledPlan({twoLayerDef()});
    plan.outputSlots[plan.lanes[0].outBase] =
        plan.lanes[0].slotCount;
    EXPECT_TRUE(hasRule(verifyBatchPlanStructure(plan),
                        rules::kBatchOutputMap));
    EXPECT_FALSE(checkPlanInvariants(plan).ok());
}

TEST(BatchCheck, DuplicateOutputSlotIsE3V305)
{
    BatchPlan plan = compiledPlan({twoOutputDef()});
    const uint32_t base = plan.lanes[0].outBase;
    plan.outputSlots[base + 1] = plan.outputSlots[base];
    EXPECT_TRUE(hasRule(verifyBatchPlanStructure(plan),
                        rules::kBatchOutputMap));
    EXPECT_FALSE(checkPlanInvariants(plan).ok());
}

// --- E3V306: fold-order equivalence against the reference compile ---

TEST(BatchCheck, WeightBitChangeIsE3V306)
{
    const std::vector<NetworkDef> defs = {twoLayerDef()};
    BatchPlan plan = compiledPlan(defs);
    // One ulp: invisible to any tolerance-based compare, caught by
    // the bit-level one.
    plan.ops[0].weight =
        std::nextafter(plan.ops[0].weight, 2.0 * plan.ops[0].weight);
    const Report r = verifyBatchPlan(plan, defs);
    EXPECT_TRUE(hasRule(r, rules::kBatchFoldDivergence));
}

TEST(BatchCheck, ReorderedOpsAreE3V306)
{
    const std::vector<NetworkDef> defs = {twoLayerDef()};
    BatchPlan plan = compiledPlan(defs);
    ASSERT_GE(plan.nodes[0].opEnd - plan.nodes[0].opBegin, 2u);
    std::swap(plan.ops[plan.nodes[0].opBegin],
              plan.ops[plan.nodes[0].opBegin + 1]);
    // Same math, different fold order: exactly what E3V306 exists for.
    EXPECT_TRUE(hasRule(verifyBatchPlan(plan, defs),
                        rules::kBatchFoldDivergence));
}

TEST(BatchCheck, FoldCheckSkippedOnStructurallyBrokenPlan)
{
    const std::vector<NetworkDef> defs = {twoLayerDef()};
    BatchPlan plan = compiledPlan(defs);
    plan.ops[0].srcSlot = 1000; // would also diverge from reference
    const Report r = verifyBatchPlan(plan, defs);
    EXPECT_TRUE(hasRule(r, rules::kBatchOpOutOfBounds));
    EXPECT_FALSE(hasRule(r, rules::kBatchFoldDivergence));
}

TEST(BatchCheck, FoldCheckWithoutDefsIsStructureOnly)
{
    const std::vector<NetworkDef> defs = {twoLayerDef()};
    BatchPlan plan = compiledPlan(defs);
    plan.ops[0].weight = 123.0; // fold-divergent, structurally fine
    EXPECT_TRUE(verifyBatchPlan(plan).empty());
}

TEST(BatchCheck, ReplicatedFoldCoversEveryLane)
{
    const NetworkDef def = twoLayerDef();
    Result<std::unique_ptr<BatchNetwork>> compiled =
        compileReplicated(def, 3);
    ASSERT_TRUE(compiled.ok()) << compiled.message();
    BatchPlan plan = (*compiled)->plan();
    EXPECT_TRUE(verifyBatchPlan(plan, {def}).empty());
    plan.nodes.back().bias += 0.5;
    EXPECT_TRUE(hasRule(verifyBatchPlan(plan, {def}),
                        rules::kBatchFoldDivergence));
}

// --- text round-trip ---

TEST(BatchCheck, TextFormRoundTripsExactly)
{
    const std::vector<NetworkDef> defs = {twoLayerDef(), directDef()};
    const BatchPlan plan = compiledPlan(defs);
    const std::string text = batchPlanToText(plan);
    Result<BatchPlan> parsed = batchPlanFromText(text);
    ASSERT_TRUE(parsed.ok()) << parsed.message();
    EXPECT_EQ(batchPlanToText(*parsed), text);
    EXPECT_TRUE(verifyBatchPlan(*parsed, defs).empty());
}

TEST(BatchCheck, ParserRejectsMalformedText)
{
    EXPECT_FALSE(batchPlanFromText("").ok());
    EXPECT_FALSE(batchPlanFromText("not a plan\n").ok());
    EXPECT_FALSE(
        batchPlanFromText("e3-batch-plan v1\ninputs 2\n").ok());
    const std::string text =
        batchPlanToText(compiledPlan({twoLayerDef()}));
    EXPECT_FALSE(batchPlanFromText(text + "junk\n").ok());
    EXPECT_TRUE(batchPlanFromText(text).ok());
}

TEST(BatchCheck, ParserKeepsOutOfRangeEnumeratorsForTheVerifier)
{
    BatchPlan plan = compiledPlan({twoLayerDef()});
    plan.segments[0].act = static_cast<Activation>(42);
    Result<BatchPlan> parsed =
        batchPlanFromText(batchPlanToText(plan));
    ASSERT_TRUE(parsed.ok()) << parsed.message();
    EXPECT_TRUE(hasRule(verifyBatchPlanStructure(*parsed),
                        rules::kBatchActivationUnknown));
}

} // namespace
} // namespace e3::verify
