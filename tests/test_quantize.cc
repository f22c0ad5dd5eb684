#include "nn/quantize.hh"

#include <gtest/gtest.h>

#include <cmath>

#include "e3/synthetic.hh"
#include "nn/compile.hh"
#include "verify/saturation.hh"

namespace e3 {
namespace {

TEST(FixedPointFormat, RangeAndResolution)
{
    const FixedPointFormat q88{16, 8};
    EXPECT_DOUBLE_EQ(q88.resolution(), 1.0 / 256.0);
    EXPECT_DOUBLE_EQ(q88.maxValue(), (32768.0 - 1.0) / 256.0);
    EXPECT_DOUBLE_EQ(q88.minValue(), -128.0);
    EXPECT_EQ(q88.describe(), "Q7.8");
}

TEST(FixedPointFormat, QuantizeRoundsToGrid)
{
    const FixedPointFormat q44{8, 4}; // step 1/16
    EXPECT_DOUBLE_EQ(q44.quantize(0.0), 0.0);
    EXPECT_DOUBLE_EQ(q44.quantize(0.26), 4.0 / 16.0);
    EXPECT_DOUBLE_EQ(q44.quantize(-0.26), -4.0 / 16.0);
    // Error never exceeds half a step inside the range.
    for (double v = -7.0; v < 7.0; v += 0.037)
        EXPECT_LE(std::fabs(q44.quantize(v) - v), 0.5 / 16.0 + 1e-12);
}

TEST(FixedPointFormat, Saturates)
{
    const FixedPointFormat q44{8, 4};
    EXPECT_DOUBLE_EQ(q44.quantize(1000.0), q44.maxValue());
    EXPECT_DOUBLE_EQ(q44.quantize(-1000.0), q44.minValue());
}

TEST(FixedPointFormat, BadBitsError)
{
    const FixedPointFormat bad{8, 9};
    const Status badFrac = bad.validate();
    ASSERT_FALSE(badFrac.ok());
    EXPECT_NE(badFrac.message().find("fractional bits"),
              std::string::npos);
    const FixedPointFormat tiny{1, 0};
    const Status badTotal = tiny.validate();
    ASSERT_FALSE(badTotal.ok());
    EXPECT_NE(badTotal.message().find("total bits"),
              std::string::npos);
}

TEST(QuantizeDef, WeightsAndBiasesLandOnGrid)
{
    Rng rng(1);
    SyntheticParams params;
    params.numIndividuals = 1;
    const auto def = syntheticIrregularNet(params, rng);
    const FixedPointFormat fmt{16, 8};
    const auto q = quantizeDef(def, fmt);
    for (const auto &node : q.nodes) {
        EXPECT_DOUBLE_EQ(node.bias, fmt.quantize(node.bias));
    }
    for (const auto &conn : q.conns) {
        EXPECT_DOUBLE_EQ(conn.weight, fmt.quantize(conn.weight));
    }
    EXPECT_EQ(q.conns.size(), def.conns.size());
}

TEST(QuantizedNetwork, WideFormatTracksFloat)
{
    Rng rng(2);
    SyntheticParams params;
    params.numIndividuals = 1;
    const auto def = syntheticIrregularNet(params, rng);

    auto floatNet = Network::create(def);
    auto qnet =
        Network::create(def, {.quantization = FixedPointFormat{32, 20}});

    Rng inputRng(3);
    for (int s = 0; s < 20; ++s) {
        std::vector<double> x(params.numInputs);
        for (auto &v : x)
            v = inputRng.uniform(-1.0, 1.0);
        const auto a = floatNet.activate(x);
        const auto b = qnet.activate(x);
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i)
            EXPECT_NEAR(a[i], b[i], 1e-3);
    }
}

TEST(QuantizedNetwork, ErrorShrinksWithMoreBits)
{
    Rng rng(4);
    SyntheticParams params;
    params.numIndividuals = 1;
    const auto def = syntheticIrregularNet(params, rng);
    auto floatNet = Network::create(def);

    auto maxError = [&](int totalBits, int fracBits) {
        auto qnet = Network::create(
            def, {.quantization = FixedPointFormat{totalBits, fracBits}});
        Rng inputRng(5);
        double worst = 0.0;
        for (int s = 0; s < 30; ++s) {
            std::vector<double> x(params.numInputs);
            for (auto &v : x)
                v = inputRng.uniform(-1.0, 1.0);
            const auto a = floatNet.activate(x);
            const auto b = qnet.activate(x);
            for (size_t i = 0; i < a.size(); ++i)
                worst = std::max(worst, std::fabs(a[i] - b[i]));
        }
        return worst;
    };
    EXPECT_LT(maxError(24, 14), maxError(8, 4));
    EXPECT_LE(maxError(16, 8), maxError(6, 3) + 1e-12);
}

TEST(QuantizedNetwork, OutputsAreOnTheGrid)
{
    Rng rng(6);
    SyntheticParams params;
    params.numIndividuals = 1;
    const auto def = syntheticIrregularNet(params, rng);
    const FixedPointFormat fmt{8, 4};
    auto qnet = Network::create(def, {.quantization = fmt});
    const auto out = qnet.activate(
        std::vector<double>(params.numInputs, 0.33));
    for (double o : out)
        EXPECT_DOUBLE_EQ(o, fmt.quantize(o));
}

TEST(FixedPointFormat, SaturationEdges)
{
    // The exact representable extremes survive quantization; one step
    // beyond saturates back to them (matching the verifier's
    // formatClips() definition of "clips" — cross-checked below).
    const FixedPointFormat q44{8, 4};
    EXPECT_DOUBLE_EQ(q44.quantize(q44.maxValue()), q44.maxValue());
    EXPECT_DOUBLE_EQ(q44.quantize(q44.minValue()), q44.minValue());
    EXPECT_DOUBLE_EQ(q44.quantize(q44.maxValue() + q44.resolution()),
                     q44.maxValue());
    EXPECT_DOUBLE_EQ(q44.quantize(q44.minValue() - q44.resolution()),
                     q44.minValue());
    // Less than half a step past the edge rounds back inside, not out.
    EXPECT_DOUBLE_EQ(
        q44.quantize(q44.maxValue() + 0.4 * q44.resolution()),
        q44.maxValue());
}

TEST(FixedPointFormat, SubResolutionValuesVanish)
{
    const FixedPointFormat q44{8, 4}; // step 1/16
    EXPECT_DOUBLE_EQ(q44.quantize(0.03), 0.0);
    EXPECT_DOUBLE_EQ(q44.quantize(-0.03), 0.0);
    // Exactly half a step rounds away from zero (round-to-nearest).
    EXPECT_NE(q44.quantize(0.5 / 16.0), 0.0);
}

TEST(FixedPointFormat, SignBoundaryRounding)
{
    const FixedPointFormat q44{8, 4};
    // Values straddling zero round toward the nearer grid point and
    // never flip sign past a full step.
    EXPECT_DOUBLE_EQ(q44.quantize(0.02), 0.0);
    EXPECT_DOUBLE_EQ(q44.quantize(-0.05), -1.0 / 16.0);
    EXPECT_LE(std::fabs(q44.quantize(-1e-9)), 0.0);
}

TEST(FixedPointFormat, ClipPredicateMatchesQuantizeError)
{
    // verify::formatClips(fmt, v) must hold exactly when quantize(v)
    // moved v by more than rounding alone can (half a step): the
    // verifier's notion of saturation and the datapath's agree.
    const FixedPointFormat q44{8, 4};
    const double halfStep = q44.resolution() / 2.0;
    for (double v = -10.0; v < 10.0; v += 0.0317) {
        const bool clipped =
            std::fabs(q44.quantize(v) - v) > halfStep + 1e-12;
        EXPECT_EQ(verify::formatClips(q44, v), clipped) << "v=" << v;
    }
}

TEST(QuantizedNetwork, StaysInsideVerifierIntervals)
{
    // Satellite cross-check: sampled executions of the quantized
    // network never escape the bounds analyzeQuantization() predicts.
    Rng rng(8);
    SyntheticParams params;
    params.numIndividuals = 1;
    const auto def = syntheticIrregularNet(params, rng);
    const FixedPointFormat fmt{16, 8};
    const std::vector<verify::Interval> inputBounds(
        params.numInputs, verify::Interval{-1.0, 1.0});
    const verify::QuantizationAnalysis analysis =
        verify::analyzeQuantization(def, inputBounds, fmt);

    auto qnet = Network::create(def, {.quantization = fmt});
    // Output bounds: postActivation of the nodes owning output slots
    // is quantized on the way out, so check the quantized interval.
    Rng inputRng(9);
    for (int s = 0; s < 50; ++s) {
        std::vector<double> x(params.numInputs);
        for (auto &v : x)
            v = inputRng.uniform(-1.0, 1.0);
        const auto out = qnet.activate(x);
        for (size_t i = 0; i < out.size(); ++i) {
            bool bounded = false;
            for (const verify::NodeBound &nb : analysis.nodes) {
                if (nb.id != def.outputIds[i])
                    continue;
                const verify::Interval q = verify::quantizeInterval(
                    fmt, nb.postActivation);
                EXPECT_TRUE(q.contains(out[i], 1e-9))
                    << "output " << i << " value " << out[i];
                bounded = true;
            }
            EXPECT_TRUE(bounded);
        }
    }
}

TEST(QuantizedNetwork, OutputsFollowOutputIdsOrder)
{
    // Outputs listed out of id order come back in outputIds order, as
    // the float network returns them (the values are on the grid).
    NetworkDef def;
    def.inputIds = {-1};
    def.outputIds = {1, 0};
    def.nodes = {{0, 0.25, Activation::Identity, Aggregation::Sum},
                 {1, 0.75, Activation::Identity, Aggregation::Sum}};
    ASSERT_TRUE(checkDefInvariants(def).ok());
    auto floatNet = Network::create(def);
    auto qnet = Network::create(def, {.quantization = FixedPointFormat{16, 8}});
    const std::vector<double> expect{0.75, 0.25};
    EXPECT_EQ(floatNet.activate({2.0}), expect);
    EXPECT_EQ(qnet.activate({2.0}), expect);
}

TEST(QuantizedNetwork, OutputIdsNeedNotStartAtZero)
{
    // An output id outside 0..numOutputs-1 still reads its own node.
    NetworkDef def;
    def.inputIds = {-1};
    def.outputIds = {7};
    def.nodes = {{7, 1.0, Activation::Identity, Aggregation::Sum}};
    ASSERT_TRUE(checkDefInvariants(def).ok());
    auto qnet = Network::create(def, {.quantization = FixedPointFormat{16, 8}});
    EXPECT_EQ(qnet.activate({2.0}), std::vector<double>{1.0});
}

TEST(QuantizedNetworkDeath, WrongArityPanics)
{
    auto def = NetworkDef::empty(2, 1);
    def.conns = {{-1, 0, 1.0}};
    auto qnet = Network::create(def, {.quantization = FixedPointFormat{16, 8}});
    EXPECT_DEATH(qnet.activate({1.0}), "inputs");
}

} // namespace
} // namespace e3
