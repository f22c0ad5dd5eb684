#include "inax/dataflow.hh"

#include <gtest/gtest.h>

#include "e3/synthetic.hh"
#include "nn/net_stats.hh"

namespace e3 {
namespace {

NetworkDef
sampleNet(uint64_t seed)
{
    SyntheticParams params;
    params.numIndividuals = 1;
    Rng rng(seed);
    return syntheticIrregularNet(params, rng);
}

TEST(Dataflow, OutputStationaryProvisionsOnePerPe)
{
    InaxConfig cfg;
    cfg.numPEs = 4;
    const auto req = analyzeOutputStationary(sampleNet(1), cfg);
    EXPECT_EQ(req.name, "output-stationary");
    EXPECT_EQ(req.accumulators, 4u);
    EXPECT_LE(req.peakLiveAccumulators, req.accumulators);
    EXPECT_GT(req.inferenceCycles, 0u);
}

TEST(Dataflow, WorstCaseDataflowsProvisionFullCapacity)
{
    InaxConfig cfg;
    cfg.numPEs = 4;
    cfg.maxSupportedNodes = 64;
    const auto def = sampleNet(2);
    const auto is = analyzeInputStationary(def, cfg);
    const auto ws = analyzeWeightStationary(def, cfg);
    EXPECT_EQ(is.accumulators, 64u);
    EXPECT_EQ(ws.accumulators, 64u);
    // The over-provisioning gap the paper warns about.
    EXPECT_LT(is.peakLiveAccumulators, is.accumulators);
}

TEST(Dataflow, PeakLiveNeverExceedsNodeCount)
{
    InaxConfig cfg;
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        const auto def = sampleNet(seed);
        const auto is = analyzeInputStationary(def, cfg);
        EXPECT_LE(is.peakLiveAccumulators,
                  computeNetStats(def).activeNodes);
        EXPECT_GE(is.peakLiveAccumulators, 1u);
    }
}

TEST(Dataflow, OsBufferIsSmallerThanWorstCaseDataflows)
{
    InaxConfig cfg;
    const auto def = sampleNet(3);
    const auto os = analyzeOutputStationary(def, cfg);
    const auto is = analyzeInputStationary(def, cfg);
    EXPECT_LT(os.bufferWords, is.bufferWords);
}

TEST(Dataflow, WeightStationaryPaysReloadCycles)
{
    // WS streams every weight once per inference through the array, so
    // its cycles exceed IS (which touches each connection once without
    // the reload round-trip).
    InaxConfig cfg;
    cfg.numPEs = 4;
    const auto def = sampleNet(4);
    const auto ws = analyzeWeightStationary(def, cfg);
    const auto is = analyzeInputStationary(def, cfg);
    EXPECT_GT(ws.inferenceCycles, is.inferenceCycles);
}

TEST(Dataflow, DeterministicAcrossCalls)
{
    InaxConfig cfg;
    const auto def = sampleNet(5);
    const auto a = analyzeInputStationary(def, cfg);
    const auto b = analyzeInputStationary(def, cfg);
    EXPECT_EQ(a.inferenceCycles, b.inferenceCycles);
    EXPECT_EQ(a.peakLiveAccumulators, b.peakLiveAccumulators);
}

} // namespace
} // namespace e3
