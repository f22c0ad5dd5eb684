/**
 * @file
 * Accelerator-session tests: batching, lockstep windows, PU/PE
 * utilization accounting, and the paper's divisor-peak property of
 * U(PU).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "inax/inax.hh"

namespace e3 {
namespace {

/** Individual with fixed inference cycles; setup/io kept trivial. */
IndividualCost
individual(uint64_t inferCycles, uint64_t active = 0)
{
    IndividualCost c;
    c.inferenceCycles = inferCycles;
    c.peActiveCycles = active ? active : inferCycles;
    c.setupCycles = 10;
    c.numInputs = 4;
    c.numOutputs = 2;
    return c;
}

InaxConfig
config(size_t pus, size_t pes = 1)
{
    InaxConfig cfg;
    cfg.numPUs = pus;
    cfg.numPEs = pes;
    return cfg;
}

TEST(Accelerator, SetupSerializesOverWeightChannel)
{
    AcceleratorSession session(config(4));
    session.loadBatch({individual(5), individual(5), individual(5)});
    EXPECT_EQ(session.report().setupCycles, 30u);
    EXPECT_EQ(session.report().batches, 1u);
}

TEST(Accelerator, StepWindowIsSlowestLivePu)
{
    AcceleratorSession session(config(2));
    session.loadBatch({individual(10), individual(30)});
    session.step({true, true});
    const auto &r = session.report();
    EXPECT_EQ(r.computeCycles, 30u);
    // PU activity: 10 + 30 of 2 x 30 provisioned.
    EXPECT_NEAR(r.pu.rate(), 40.0 / 60.0, 1e-12);
}

TEST(Accelerator, FinishedLanesIdleTheirPu)
{
    AcceleratorSession session(config(2));
    session.loadBatch({individual(10), individual(10)});
    session.step({true, false});
    const auto &r = session.report();
    EXPECT_EQ(r.computeCycles, 10u);
    EXPECT_NEAR(r.pu.rate(), 0.5, 1e-12);
}

TEST(Accelerator, AllDeadStepIsNoop)
{
    AcceleratorSession session(config(2));
    session.loadBatch({individual(10), individual(10)});
    session.step({false, false});
    EXPECT_EQ(session.report().computeCycles, 0u);
    EXPECT_EQ(session.report().steps, 0u);
}

TEST(AcceleratorDeath, OversizedBatchPanics)
{
    AcceleratorSession session(config(2));
    EXPECT_DEATH(
        session.loadBatch({individual(1), individual(1),
                           individual(1)}),
        "exceeds");
}

TEST(AcceleratorDeath, LiveMaskSizePanics)
{
    AcceleratorSession session(config(2));
    session.loadBatch({individual(1)});
    EXPECT_DEATH(session.step({true, false}), "live mask");
}

TEST(RunAccelerator, BatchesWholePopulation)
{
    std::vector<IndividualCost> pop(10, individual(7));
    std::vector<int> lens(10, 3);
    const auto report = runAccelerator(pop, lens, config(4));
    // ceil(10/4) = 3 batches, each stepping 3 times.
    EXPECT_EQ(report.batches, 3u);
    EXPECT_EQ(report.steps, 9u);
    EXPECT_EQ(report.setupCycles, 100u); // 10 individuals x 10
    EXPECT_EQ(report.computeCycles, 9u * 7);
}

TEST(RunAccelerator, EpisodeVarianceLowersPuUtilization)
{
    std::vector<IndividualCost> pop(8, individual(5));
    const std::vector<int> uniform(8, 10);
    std::vector<int> varied{1, 2, 3, 4, 5, 6, 7, 10};
    const auto cfg = config(8);
    const auto uniformReport = runAccelerator(pop, uniform, cfg);
    const auto variedReport = runAccelerator(pop, varied, cfg);
    EXPECT_NEAR(uniformReport.pu.rate(), 1.0, 1e-12);
    EXPECT_LT(variedReport.pu.rate(), 0.6);
}

TEST(RunAccelerator, DivisorPuCountsPeakUtilization)
{
    // The paper's Fig. 7 property: with p individuals, U(PU) peaks at
    // PU counts dividing p and dips just below them.
    const size_t p = 60;
    std::vector<IndividualCost> pop(p, individual(5));
    const std::vector<int> lens(p, 4);

    const double at30 = runAccelerator(pop, lens, config(30)).pu.rate();
    const double at29 = runAccelerator(pop, lens, config(29)).pu.rate();
    const double at20 = runAccelerator(pop, lens, config(20)).pu.rate();
    EXPECT_NEAR(at30, 1.0, 1e-12);
    EXPECT_NEAR(at20, 1.0, 1e-12);
    EXPECT_LT(at29, 0.75);
}

TEST(RunAccelerator, PeUtilizationReflectsInternalIdle)
{
    // peActive half of inference cycles -> U(PE) capped at 0.5.
    std::vector<IndividualCost> pop(4, individual(10, 5));
    const std::vector<int> lens(4, 2);
    const auto report = runAccelerator(pop, lens, config(4));
    EXPECT_NEAR(report.pe.rate(), 0.5, 1e-12);
}

TEST(InaxReport, MergeAndTotals)
{
    InaxReport a;
    a.setupCycles = 10;
    a.computeCycles = 20;
    a.ioCycles = 5;
    a.syncCycles = 3;
    InaxReport b = a;
    a.merge(b);
    EXPECT_EQ(a.setupCycles, 20u);
    EXPECT_EQ(a.totalCycles(), 2u * 38);

    InaxConfig cfg; // 200 MHz
    EXPECT_NEAR(a.seconds(cfg), 76.0 * 5e-9, 1e-15);
}

TEST(InaxReport, EvaluateControlComplement)
{
    std::vector<IndividualCost> pop(4, individual(10, 5));
    const std::vector<int> lens(4, 2);
    const auto report = runAccelerator(pop, lens, config(4));
    // setup + useful + control == total
    const uint64_t useful = static_cast<uint64_t>(
        report.pe.rate() *
        static_cast<double>(report.computeCycles));
    EXPECT_EQ(report.setupCycles + useful +
                  report.evaluateControlCycles(),
              report.totalCycles());
}

/** One step() per modeled iteration while any lane is live. */
InaxReport
perStepEpisode(const std::vector<IndividualCost> &batch,
               std::vector<int> remaining, const InaxConfig &cfg)
{
    AcceleratorSession session(cfg);
    session.loadBatch(batch);
    bool any = true;
    while (any) {
        any = false;
        std::vector<bool> live(remaining.size());
        for (size_t i = 0; i < remaining.size(); ++i) {
            live[i] = remaining[i] > 0;
            any = any || live[i];
            if (remaining[i] > 0)
                --remaining[i];
        }
        if (any)
            session.step(live);
    }
    return session.report();
}

InaxReport
runLengthEpisode(const std::vector<IndividualCost> &batch,
                 const std::vector<int> &lengths, const InaxConfig &cfg)
{
    AcceleratorSession session(cfg);
    session.loadBatch(batch);
    session.runEpisode(lengths.data(), lengths.size());
    return session.report();
}

void
expectFieldEqual(const InaxReport &a, const InaxReport &b)
{
    EXPECT_EQ(a.setupCycles, b.setupCycles);
    EXPECT_EQ(a.computeCycles, b.computeCycles);
    EXPECT_EQ(a.ioCycles, b.ioCycles);
    EXPECT_EQ(a.syncCycles, b.syncCycles);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.pe.activeCycles(), b.pe.activeCycles());
    EXPECT_EQ(a.pe.provisionedCycles(), b.pe.provisionedCycles());
    EXPECT_EQ(a.pu.activeCycles(), b.pu.activeCycles());
    EXPECT_EQ(a.pu.provisionedCycles(), b.pu.provisionedCycles());
}

/** A random batch of up to @p pus individuals and their lengths. */
void
randomBatch(Rng &rng, size_t pus, std::vector<IndividualCost> &batch,
            std::vector<int> &lengths)
{
    batch.clear();
    lengths.clear();
    const size_t n = 1 + static_cast<size_t>(rng.uniformInt(uint64_t{pus}));
    for (size_t i = 0; i < n; ++i) {
        IndividualCost c = individual(1 + rng.uniformInt(uint64_t{40}));
        c.peActiveCycles = 1 + rng.uniformInt(c.inferenceCycles);
        c.numInputs = 1 + static_cast<size_t>(rng.uniformInt(uint64_t{8}));
        c.numOutputs = 1 + static_cast<size_t>(rng.uniformInt(uint64_t{4}));
        batch.push_back(c);
        // Repeated lengths, zero-length (dead) lanes and long tails.
        const uint64_t longest = rng.uniform() < 0.5 ? 5 : 300;
        lengths.push_back(rng.uniform() < 0.2
                              ? 0
                              : static_cast<int>(rng.uniformInt(longest)));
    }
}

TEST(Accelerator, RunLengthEpisodeMatchesPerStepLoop)
{
    Rng rng(17);
    std::vector<IndividualCost> batch;
    std::vector<int> lengths;
    for (int trial = 0; trial < 300; ++trial) {
        const InaxConfig cfg =
            config(1 + static_cast<size_t>(rng.uniformInt(uint64_t{16})),
                   1 + static_cast<size_t>(rng.uniformInt(uint64_t{4})));
        randomBatch(rng, cfg.numPUs, batch, lengths);
        expectFieldEqual(runLengthEpisode(batch, lengths, cfg),
                         perStepEpisode(batch, lengths, cfg));
    }
}

TEST(Accelerator, RunLengthEpisodeKeepsOneHwWindowPerStep)
{
    const auto inferSpans = [](const std::string &json) {
        size_t count = 0;
        for (size_t at = json.find("\"infer\""); at != std::string::npos;
             at = json.find("\"infer\"", at + 1))
            ++count;
        return count;
    };
    Rng rng(23);
    std::vector<IndividualCost> batch;
    std::vector<int> lengths;
    randomBatch(rng, 8, batch, lengths);
    lengths.push_back(7); // at least one live lane
    batch.push_back(individual(9));

    obs::traceStart(obs::TraceDetail::Hw);
    const InaxReport perStep = perStepEpisode(batch, lengths, config(9));
    const size_t perStepSpans = inferSpans(obs::traceStopToString());
    obs::traceStart(obs::TraceDetail::Hw);
    const InaxReport runLength = runLengthEpisode(batch, lengths, config(9));
    const size_t runLengthSpans = inferSpans(obs::traceStopToString());

    size_t liveSteps = 0;
    for (int len : lengths)
        liveSteps += static_cast<size_t>(std::max(len, 0));
    EXPECT_EQ(perStepSpans, liveSteps);
    EXPECT_EQ(runLengthSpans, perStepSpans);
    expectFieldEqual(runLength, perStep);
}

} // namespace
} // namespace e3
