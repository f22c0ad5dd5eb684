/**
 * @file
 * Unit and soundness tests for the e3_verify static analyzer: interval
 * arithmetic against sampled runtime arithmetic, every structural rule
 * (genome- and def-level) with a violating and a clean fixture, the
 * quantization/saturation analysis against nn/quantize semantics, INAX
 * schedule legality, diagnostics formatting (text + JSON per the mini
 * JSON parser), the compile-time invariant checker, and the headline
 * empirical guarantee: over 50-generation CartPole and LunarLander
 * runs, no runtime node activation ever exceeds its static bound.
 */

#include "verify/verify.hh"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "e3/experiment.hh"
#include "mini_json.hh"
#include "nn/compile.hh"
#include "nn/layering.hh"
#include "persist/checkpoint.hh"

namespace e3::verify {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool
hasRule(const Report &report, const std::string &id)
{
    for (const auto &d : report.diagnostics) {
        if (d.ruleId == id)
            return true;
    }
    return false;
}

size_t
countRule(const Report &report, const std::string &id)
{
    size_t n = 0;
    for (const auto &d : report.diagnostics) {
        if (d.ruleId == id)
            ++n;
    }
    return n;
}

// --- interval arithmetic ---

TEST(Interval, ConstructionAndContains)
{
    const Interval v = Interval::of(3.0, -1.0);
    EXPECT_DOUBLE_EQ(v.lo, -1.0);
    EXPECT_DOUBLE_EQ(v.hi, 3.0);
    EXPECT_TRUE(v.contains(0.0));
    EXPECT_TRUE(v.contains(3.0));
    EXPECT_FALSE(v.contains(3.1));
    EXPECT_TRUE(v.contains(3.1, 0.2));
    EXPECT_DOUBLE_EQ(v.maxAbs(), 3.0);
    EXPECT_DOUBLE_EQ(Interval::point(2.5).lo, 2.5);
    EXPECT_DOUBLE_EQ(Interval::point(2.5).hi, 2.5);
}

TEST(Interval, AddAndShift)
{
    const Interval s = addIntervals({-1.0, 2.0}, {0.5, 3.0});
    EXPECT_DOUBLE_EQ(s.lo, -0.5);
    EXPECT_DOUBLE_EQ(s.hi, 5.0);
    const Interval t = shiftInterval({-1.0, 2.0}, -3.0);
    EXPECT_DOUBLE_EQ(t.lo, -4.0);
    EXPECT_DOUBLE_EQ(t.hi, -1.0);
}

TEST(Interval, ScaleIsSignAware)
{
    const Interval pos = scaleInterval({-1.0, 2.0}, 3.0);
    EXPECT_DOUBLE_EQ(pos.lo, -3.0);
    EXPECT_DOUBLE_EQ(pos.hi, 6.0);
    const Interval neg = scaleInterval({-1.0, 2.0}, -3.0);
    EXPECT_DOUBLE_EQ(neg.lo, -6.0);
    EXPECT_DOUBLE_EQ(neg.hi, 3.0);
}

TEST(Interval, ZeroWeightTimesInfiniteBoundIsZero)
{
    // Runtime values are finite, so 0 * [-inf, inf] must bound to 0,
    // not NaN (the 0*inf IEEE trap the interval engine guards).
    const Interval z = scaleInterval({-kInf, kInf}, 0.0);
    EXPECT_DOUBLE_EQ(z.lo, 0.0);
    EXPECT_DOUBLE_EQ(z.hi, 0.0);
}

TEST(Interval, MulIsFourCorner)
{
    const Interval p = mulIntervals({-2.0, 3.0}, {-5.0, 4.0});
    EXPECT_DOUBLE_EQ(p.lo, -15.0); // 3 * -5
    EXPECT_DOUBLE_EQ(p.hi, 12.0);  // 3 * 4
}

TEST(Interval, MinMaxCombine)
{
    const Interval mx = maxIntervals({-1.0, 2.0}, {0.0, 5.0});
    EXPECT_DOUBLE_EQ(mx.lo, 0.0);
    EXPECT_DOUBLE_EQ(mx.hi, 5.0);
    const Interval mn = minIntervals({-1.0, 2.0}, {0.0, 5.0});
    EXPECT_DOUBLE_EQ(mn.lo, -1.0);
    EXPECT_DOUBLE_EQ(mn.hi, 2.0);
}

TEST(AggregateInterval, MirrorsRuntimeAggregator)
{
    const std::vector<Interval> c = {{-1.0, 2.0}, {0.5, 1.0},
                                     {-3.0, 0.0}};
    const Interval sum = aggregateInterval(Aggregation::Sum, c);
    EXPECT_DOUBLE_EQ(sum.lo, -3.5);
    EXPECT_DOUBLE_EQ(sum.hi, 3.0);
    const Interval mean = aggregateInterval(Aggregation::Mean, c);
    EXPECT_DOUBLE_EQ(mean.lo, -3.5 / 3.0);
    EXPECT_DOUBLE_EQ(mean.hi, 1.0);
    const Interval mx = aggregateInterval(Aggregation::Max, c);
    EXPECT_DOUBLE_EQ(mx.lo, 0.5);
    EXPECT_DOUBLE_EQ(mx.hi, 2.0);
    const Interval mn = aggregateInterval(Aggregation::Min, c);
    EXPECT_DOUBLE_EQ(mn.lo, -3.0);
    EXPECT_DOUBLE_EQ(mn.hi, 0.0);
    // Empty aggregations yield 0 (the Aggregator contract).
    const Interval empty = aggregateInterval(Aggregation::Sum, {});
    EXPECT_DOUBLE_EQ(empty.lo, 0.0);
    EXPECT_DOUBLE_EQ(empty.hi, 0.0);
}

TEST(AggregateInterval, SampledSoundnessAgainstAggregator)
{
    // Every corner assignment of per-link values must land inside the
    // aggregate bound for every aggregation kind.
    const std::vector<Interval> c = {{-2.0, 1.0}, {0.25, 3.0}};
    for (Aggregation agg :
         {Aggregation::Sum, Aggregation::Product, Aggregation::Max,
          Aggregation::Min, Aggregation::Mean}) {
        const Interval bound = aggregateInterval(agg, c);
        for (double a : {-2.0, -0.5, 1.0}) {
            for (double b : {0.25, 1.5, 3.0}) {
                Aggregator runtime(agg);
                runtime.add(a);
                runtime.add(b);
                EXPECT_TRUE(bound.contains(runtime.result(), 1e-12))
                    << "agg " << static_cast<int>(agg) << " a=" << a
                    << " b=" << b;
            }
        }
    }
}

TEST(ActivationInterval, SampledSoundnessForEveryActivation)
{
    // Dense sweep: f(x) for every x in [lo, hi] must land inside
    // activationInterval(act, [lo, hi]). Monotone activations are
    // bit-exact; sin/gauss allow a library ulp.
    const std::vector<Interval> pres = {
        {-0.5, 0.5}, {-3.0, 2.0}, {0.1, 7.0}, {-20.0, -0.2},
        {-100.0, 100.0}};
    for (Activation act :
         {Activation::Sigmoid, Activation::Tanh, Activation::ReLU,
          Activation::Identity, Activation::Sin, Activation::Gauss,
          Activation::Abs, Activation::Clamped}) {
        for (const Interval &pre : pres) {
            const Interval post = activationInterval(act, pre);
            for (int i = 0; i <= 400; ++i) {
                const double x =
                    pre.lo + (pre.hi - pre.lo) * i / 400.0;
                const double y = applyActivation(act, x);
                EXPECT_TRUE(post.contains(y, 1e-12))
                    << activationName(act) << " at x=" << x << " y="
                    << y << " bound [" << post.lo << ", " << post.hi
                    << "]";
            }
        }
    }
}

TEST(ActivationInterval, SinPeaksInsideTheDomainAreFound)
{
    // applyActivation(Sin, x) = sin(5x); [0, 0.5] covers 5x in
    // [0, 2.5], which crosses the pi/2 peak but no trough of -1.
    const Interval post =
        activationInterval(Activation::Sin, {0.0, 0.5});
    EXPECT_DOUBLE_EQ(post.hi, 1.0);
    EXPECT_GT(post.lo, -1.0);
    // A full period finds both.
    const Interval full =
        activationInterval(Activation::Sin, {-2.0, 2.0});
    EXPECT_DOUBLE_EQ(full.lo, -1.0);
    EXPECT_DOUBLE_EQ(full.hi, 1.0);
}

TEST(ActivationInterval, GaussPeaksAtZeroOnlyWhenZeroIsInside)
{
    const Interval across =
        activationInterval(Activation::Gauss, {-1.0, 2.0});
    EXPECT_DOUBLE_EQ(across.hi, 1.0);
    const Interval offside =
        activationInterval(Activation::Gauss, {0.5, 2.0});
    EXPECT_LT(offside.hi, 1.0);
}

TEST(ObservationIntervals, BoxAndDiscrete)
{
    const std::vector<Interval> box =
        observationIntervals(Space::box({-1.0, 0.0}, {2.0, 5.0}));
    ASSERT_EQ(box.size(), 2u);
    EXPECT_DOUBLE_EQ(box[0].lo, -1.0);
    EXPECT_DOUBLE_EQ(box[1].hi, 5.0);
    const std::vector<Interval> disc =
        observationIntervals(Space::discrete(4));
    ASSERT_EQ(disc.size(), 1u);
    EXPECT_DOUBLE_EQ(disc[0].lo, 0.0);
    EXPECT_DOUBLE_EQ(disc[0].hi, 3.0);
}

TEST(NetworkValueBounds, HandComputedTwoLayerNetwork)
{
    NetworkDef def = NetworkDef::empty(2, 1);
    def.nodes.push_back({5, 0.5, Activation::Identity,
                         Aggregation::Sum});
    def.nodes[0].act = Activation::Identity; // output node 0
    def.conns.push_back({-1, 5, 2.0});
    def.conns.push_back({-2, 5, -1.0});
    def.conns.push_back({5, 0, 0.5});
    const Network net = Network::create(def);
    const std::vector<Interval> bounds =
        networkValueBounds(net.plan(), {{-1.0, 1.0}, {0.0, 2.0}});
    ASSERT_EQ(bounds.size(), net.valueSlots());
    const DefAnalysis &a = analyzeDef(def);
    const auto slotOf = [&](int id) { return a.slot[a.indexOf(id)]; };
    // Hidden 5: 2*[-1,1] + (-1)*[0,2] + 0.5 = [-3.5, 2.5].
    EXPECT_DOUBLE_EQ(bounds[slotOf(5)].lo, -3.5);
    EXPECT_DOUBLE_EQ(bounds[slotOf(5)].hi, 2.5);
    // Output 0: 0.5 * that = [-1.75, 1.25] (+ bias 0).
    EXPECT_DOUBLE_EQ(bounds[slotOf(0)].lo, -1.75);
    EXPECT_DOUBLE_EQ(bounds[slotOf(0)].hi, 1.25);
}

// --- structural pass: genomes ---

/** Minimal well-formed genome for a 2-in / 1-out interface. */
Genome
cleanGenome()
{
    Genome g(1);
    g.nodes.emplace(0, NodeGene{0, 0.1, Activation::Sigmoid,
                                Aggregation::Sum});
    g.conns.emplace(ConnKey{-1, 0},
                    ConnGene{{-1, 0}, 0.5, true});
    g.conns.emplace(ConnKey{-2, 0},
                    ConnGene{{-2, 0}, -0.25, true});
    return g;
}

GenomeInterface
iface21()
{
    GenomeInterface iface;
    iface.numInputs = 2;
    iface.numOutputs = 1;
    iface.feedForward = true;
    return iface;
}

TEST(VerifyGenome, CleanGenomeIsClean)
{
    EXPECT_TRUE(verifyGenome(cleanGenome(), iface21()).empty());
}

TEST(VerifyGenome, DanglingEndpointsAreE3V001)
{
    Genome g = cleanGenome();
    g.conns.emplace(ConnKey{7, 0}, ConnGene{{7, 0}, 1.0, true});
    g.conns.emplace(ConnKey{-1, 9}, ConnGene{{-1, 9}, 1.0, true});
    const Report r = verifyGenome(g, iface21());
    EXPECT_EQ(countRule(r, rules::kDanglingEndpoint), 2u);
    EXPECT_TRUE(r.hasErrors());
}

TEST(VerifyGenome, DisabledGenesAreStillChecked)
{
    Genome g = cleanGenome();
    g.conns.emplace(ConnKey{7, 0}, ConnGene{{7, 0}, 1.0, false});
    EXPECT_TRUE(hasRule(verifyGenome(g, iface21()),
                        rules::kDanglingEndpoint));
}

TEST(VerifyGenome, InputAsDestinationIsE3V002)
{
    Genome g = cleanGenome();
    g.conns.emplace(ConnKey{0, -1}, ConnGene{{0, -1}, 1.0, true});
    EXPECT_TRUE(hasRule(verifyGenome(g, iface21()),
                        rules::kInputAsDestination));
}

TEST(VerifyGenome, MissingOutputNodeIsE3V003)
{
    Genome g(1);
    g.nodes.emplace(5, NodeGene{5, 0.0, Activation::Tanh,
                                Aggregation::Sum});
    g.conns.emplace(ConnKey{-1, 5}, ConnGene{{-1, 5}, 1.0, true});
    const Report r = verifyGenome(g, iface21());
    EXPECT_TRUE(hasRule(r, rules::kMissingOutputNode));
    // With an unknown interface the same genome passes the check.
    EXPECT_FALSE(hasRule(verifyGenome(g, GenomeInterface::lenient()),
                         rules::kMissingOutputNode));
}

TEST(VerifyGenome, EnabledCycleReachingOutputIsE3V004)
{
    Genome g = cleanGenome();
    g.nodes.emplace(5, NodeGene{5, 0.0, Activation::Tanh,
                                Aggregation::Sum});
    g.nodes.emplace(6, NodeGene{6, 0.0, Activation::Tanh,
                                Aggregation::Sum});
    g.conns.emplace(ConnKey{5, 6}, ConnGene{{5, 6}, 1.0, true});
    g.conns.emplace(ConnKey{6, 5}, ConnGene{{6, 5}, 1.0, true});
    g.conns.emplace(ConnKey{5, 0}, ConnGene{{5, 0}, 1.0, true});
    EXPECT_TRUE(hasRule(verifyGenome(g, iface21()),
                        rules::kFeedForwardCycle));
}

TEST(VerifyGenome, CycleAmongUnreachableHiddensIsOnlyAWarning)
{
    // CreateNet prunes nodes with no path to an output, so a cycle
    // there never executes: E3V008 debris warnings, not E3V004.
    Genome g = cleanGenome();
    g.nodes.emplace(5, NodeGene{5, 0.0, Activation::Tanh,
                                Aggregation::Sum});
    g.nodes.emplace(6, NodeGene{6, 0.0, Activation::Tanh,
                                Aggregation::Sum});
    g.conns.emplace(ConnKey{5, 6}, ConnGene{{5, 6}, 1.0, true});
    g.conns.emplace(ConnKey{6, 5}, ConnGene{{6, 5}, 1.0, true});
    const Report r = verifyGenome(g, iface21());
    EXPECT_FALSE(hasRule(r, rules::kFeedForwardCycle));
    EXPECT_EQ(countRule(r, rules::kUnreachableHidden), 2u);
    EXPECT_FALSE(r.hasErrors());
}

TEST(VerifyGenome, SelfLoopIsE3V005OnlyWhenFeedForward)
{
    Genome g = cleanGenome();
    g.nodes.emplace(5, NodeGene{5, 0.0, Activation::Tanh,
                                Aggregation::Sum});
    g.conns.emplace(ConnKey{5, 5}, ConnGene{{5, 5}, 1.0, true});
    g.conns.emplace(ConnKey{5, 0}, ConnGene{{5, 0}, 1.0, true});
    g.conns.emplace(ConnKey{-1, 5}, ConnGene{{-1, 5}, 1.0, true});
    EXPECT_TRUE(
        hasRule(verifyGenome(g, iface21()), rules::kSelfLoop));
    GenomeInterface recurrent = iface21();
    recurrent.feedForward = false;
    EXPECT_FALSE(
        hasRule(verifyGenome(g, recurrent), rules::kSelfLoop));
}

TEST(VerifyGenome, NonfiniteParametersAreE3V007)
{
    Genome g = cleanGenome();
    g.nodes.at(0).bias = std::numeric_limits<double>::quiet_NaN();
    g.conns.at(ConnKey{-1, 0}).weight = kInf;
    const Report r = verifyGenome(g, iface21());
    EXPECT_EQ(countRule(r, rules::kNonfiniteParameter), 2u);
}

TEST(VerifyGenome, InputBeyondInterfaceIsE3V009)
{
    Genome g = cleanGenome();
    g.conns.emplace(ConnKey{-3, 0}, ConnGene{{-3, 0}, 1.0, true});
    EXPECT_TRUE(hasRule(verifyGenome(g, iface21()),
                        rules::kInputOutOfRange));
    // Unknown interface: any negative id is a legal input.
    EXPECT_FALSE(hasRule(verifyGenome(g, GenomeInterface::lenient()),
                         rules::kInputOutOfRange));
}

// --- structural pass: defs ---

TEST(VerifyNetworkDef, CleanDefIsClean)
{
    NetworkDef def = NetworkDef::empty(2, 1);
    def.conns.push_back({-1, 0, 0.5});
    EXPECT_TRUE(verifyNetworkDef(def).empty());
}

TEST(VerifyNetworkDef, DuplicatesAreE3V006)
{
    NetworkDef def = NetworkDef::empty(2, 1);
    def.conns.push_back({-1, 0, 0.5});
    def.conns.push_back({-1, 0, 0.25});
    def.nodes.push_back(def.nodes[0]); // duplicate node 0
    const Report r = verifyNetworkDef(def);
    EXPECT_EQ(countRule(r, rules::kDuplicateElement), 2u);
}

TEST(VerifyNetworkDef, CycleAndSelfLoopAndEndpoints)
{
    NetworkDef def = NetworkDef::empty(1, 1);
    def.nodes.push_back({5, 0.0, Activation::Tanh,
                         Aggregation::Sum});
    def.conns.push_back({5, 0, 1.0});
    def.conns.push_back({0, 5, 1.0});
    EXPECT_TRUE(hasRule(verifyNetworkDef(def),
                        rules::kFeedForwardCycle));

    NetworkDef loop = NetworkDef::empty(1, 1);
    loop.conns.push_back({0, 0, 1.0});
    EXPECT_TRUE(hasRule(verifyNetworkDef(loop), rules::kSelfLoop));

    NetworkDef dangle = NetworkDef::empty(1, 1);
    dangle.conns.push_back({7, 0, 1.0});
    EXPECT_TRUE(hasRule(verifyNetworkDef(dangle),
                        rules::kDanglingEndpoint));
}

TEST(VerifyNetworkDef, RecurrentModeAllowsCycles)
{
    NetworkDef def = NetworkDef::empty(1, 1);
    def.nodes.push_back({5, 0.0, Activation::Tanh,
                         Aggregation::Sum});
    def.conns.push_back({5, 0, 1.0});
    def.conns.push_back({0, 5, 1.0});
    EXPECT_FALSE(hasRule(verifyNetworkDef(def, /*feedForward=*/false),
                         rules::kFeedForwardCycle));
}

TEST(VerifyNetworkDef, EvolvedGenomesDecodeVerifierClean)
{
    // The platform's --verify gate rests on this: decoded defs from
    // real evolution carry no structural errors.
    const NeatConfig cfg = NeatConfig::forTask(4, 1, 475.0);
    const std::vector<NetworkDef> defs =
        evolvedPopulation("cartpole", 8, 48, 11);
    for (const NetworkDef &def : defs) {
        const Report r = verifyNetworkDef(def, cfg.feedForward);
        EXPECT_FALSE(r.hasErrors());
    }
}

// --- compile-time invariant checker (nn/compile) ---

TEST(CheckDefInvariants, AcceptsCleanRejectsBroken)
{
    NetworkDef good = NetworkDef::empty(2, 1);
    good.conns.push_back({-1, 0, 0.5});
    EXPECT_TRUE(checkDefInvariants(good).ok());

    NetworkDef bad = NetworkDef::empty(2, 1);
    bad.conns.push_back({7, 0, 0.5});
    const Status s = checkDefInvariants(bad);
    EXPECT_FALSE(s.ok());

    NetworkDef cyc = NetworkDef::empty(1, 1);
    cyc.nodes.push_back({5, 0.0, Activation::Tanh,
                         Aggregation::Sum});
    cyc.conns.push_back({5, 0, 1.0});
    cyc.conns.push_back({0, 5, 1.0});
    EXPECT_FALSE(checkDefInvariants(cyc).ok());
    EXPECT_TRUE(checkDefInvariants(cyc, /*recurrent=*/true).ok());
}

// --- diagnostics ---

TEST(Diagnostics, CatalogHasStableUniqueIds)
{
    const auto &catalog = ruleCatalog();
    EXPECT_GE(catalog.size(), 19u);
    std::set<std::string> ids;
    for (const RuleInfo &info : catalog) {
        EXPECT_TRUE(ids.insert(info.id).second) << info.id;
        EXPECT_NE(std::string(info.name), "");
        EXPECT_NE(std::string(info.summary), "");
    }
    EXPECT_TRUE(ids.count("E3V001"));
    EXPECT_TRUE(ids.count("E3V104"));
    EXPECT_TRUE(ids.count("E3V205"));
}

TEST(DiagnosticsDeath, UnknownRuleIdPanics)
{
    EXPECT_DEATH(makeDiagnostic("E3V999", "", "nope"), "E3V999");
}

TEST(Diagnostics, ReportCountsAndStrictness)
{
    Report r;
    r.add(makeDiagnostic(rules::kDanglingEndpoint, "conn 1->2", "x"));
    r.add(makeDiagnostic(rules::kUnreachableHidden, "node 9", "y"));
    EXPECT_EQ(r.errorCount(), 1u);
    EXPECT_EQ(r.warningCount(), 1u);
    EXPECT_TRUE(r.failed(false));
    Report warnOnly;
    warnOnly.add(
        makeDiagnostic(rules::kUnreachableHidden, "node 9", "y"));
    EXPECT_FALSE(warnOnly.failed(false));
    EXPECT_TRUE(warnOnly.failed(true));
}

TEST(Diagnostics, TextAndJsonFormats)
{
    Report r;
    r.add(makeDiagnostic(rules::kSelfLoop, "conn 5->5", "loops"));
    r.setArtifact("champ.genome");
    const std::string text = formatText(r);
    EXPECT_NE(text.find("E3V005"), std::string::npos);
    EXPECT_NE(text.find("self-loop"), std::string::npos);
    EXPECT_NE(text.find("champ.genome"), std::string::npos);

    test::JsonValue doc;
    ASSERT_TRUE(test::JsonParser(toJson(r)).parse(doc));
    const test::JsonValue *diags = doc.find("diagnostics");
    ASSERT_NE(diags, nullptr);
    ASSERT_EQ(diags->array.size(), 1u);
    EXPECT_EQ(diags->array[0].find("rule")->string, "E3V005");
    EXPECT_EQ(diags->array[0].find("locus")->string, "conn 5->5");
    EXPECT_DOUBLE_EQ(doc.find("errors")->number, 1.0);
}

// --- quantization / saturation ---

TEST(Saturation, FormatClipsAtTheExactEdges)
{
    const FixedPointFormat q44{8, 4}; // range [-8, 7.9375], step 1/16
    EXPECT_FALSE(formatClips(q44, q44.maxValue()));
    EXPECT_FALSE(formatClips(q44, q44.minValue()));
    EXPECT_TRUE(formatClips(q44, q44.maxValue() + q44.resolution()));
    EXPECT_TRUE(formatClips(q44, q44.minValue() - q44.resolution()));
    // Sub-half-step past the edge still rounds back inside.
    EXPECT_FALSE(
        formatClips(q44, q44.maxValue() + 0.4 * q44.resolution()));
}

TEST(Saturation, QuantizeIntervalIsEndpointQuantization)
{
    const FixedPointFormat q44{8, 4};
    const Interval q = quantizeInterval(q44, {-100.0, 0.26});
    EXPECT_DOUBLE_EQ(q.lo, q44.minValue());
    EXPECT_DOUBLE_EQ(q.hi, 0.25);
}

TEST(Saturation, ParameterOutsideRangeIsE3V101)
{
    NetworkDef def = NetworkDef::empty(1, 1);
    def.conns.push_back({-1, 0, 25.0});
    const QuantizationAnalysis a = analyzeQuantization(
        def, {{-1.0, 1.0}}, FixedPointFormat{8, 4});
    EXPECT_TRUE(hasRule(a.report, rules::kParameterSaturates));
    EXPECT_FALSE(a.guaranteedSafe);
    ASSERT_TRUE(a.suggestionValid);
    // The suggested format must actually represent the weight.
    EXPECT_GE(a.suggested.maxValue(), 25.0);
    EXPECT_EQ(a.suggested.fracBits, 4);
}

TEST(Saturation, SubResolutionWeightIsE3V102Warning)
{
    NetworkDef def = NetworkDef::empty(1, 1);
    def.conns.push_back({-1, 0, 0.01}); // < half of 1/16
    const QuantizationAnalysis a = analyzeQuantization(
        def, {{-1.0, 1.0}}, FixedPointFormat{8, 4});
    EXPECT_TRUE(hasRule(a.report, rules::kParameterUnderflows));
    EXPECT_FALSE(a.report.hasErrors());
}

TEST(Saturation, SafeNetworkIsGuaranteedSafe)
{
    NetworkDef def = NetworkDef::empty(2, 1);
    def.conns.push_back({-1, 0, 0.5});
    def.conns.push_back({-2, 0, -0.5});
    const QuantizationAnalysis a = analyzeQuantization(
        def, {{-1.0, 1.0}, {-1.0, 1.0}}, FixedPointFormat{16, 8});
    EXPECT_TRUE(a.report.empty()) << formatText(a.report);
    EXPECT_TRUE(a.guaranteedSafe);
    ASSERT_FALSE(a.nodes.empty());
    // Sigmoid output stays in [0, 1].
    EXPECT_GE(a.nodes.back().postActivation.lo, 0.0);
    EXPECT_LE(a.nodes.back().postActivation.hi, 1.0);
}

TEST(Saturation, WideActivationIsE3V104Warning)
{
    NetworkDef def = NetworkDef::empty(1, 1);
    def.nodes[0].act = Activation::Identity;
    def.conns.push_back({-1, 0, 7.0});
    const QuantizationAnalysis a = analyzeQuantization(
        def, {{-4.0, 4.0}}, FixedPointFormat{8, 4});
    EXPECT_TRUE(hasRule(a.report, rules::kActivationMaySaturate));
    const NodeBound &out = a.nodes.back();
    EXPECT_TRUE(out.maySaturate);
}

TEST(Saturation, OutOfRangeInputIsE3V103Warning)
{
    NetworkDef def = NetworkDef::empty(1, 1);
    def.conns.push_back({-1, 0, 0.5});
    const QuantizationAnalysis a = analyzeQuantization(
        def, {{-100.0, 100.0}}, FixedPointFormat{8, 4});
    EXPECT_TRUE(hasRule(a.report, rules::kInputMaySaturate));
}

TEST(Saturation, IntervalsMatchQuantizedNetworkExecution)
{
    // Cross-check: run the quantized Network the analysis models and
    // assert every sampled output lands inside the analyzed bound.
    NetworkDef def = NetworkDef::empty(2, 1);
    def.nodes.push_back({5, 0.25, Activation::Tanh,
                         Aggregation::Sum});
    def.conns.push_back({-1, 5, 1.5});
    def.conns.push_back({-2, 5, -0.75});
    def.conns.push_back({5, 0, 2.0});
    const FixedPointFormat fmt{16, 8};
    const QuantizationAnalysis a = analyzeQuantization(
        def, {{-2.0, 2.0}, {-2.0, 2.0}}, fmt);
    // The runtime emits *quantized* node values; quantization is
    // monotone, so the endpoint-quantized bound must contain them.
    const Interval outBound =
        quantizeInterval(fmt, a.nodes.back().postActivation);
    Network qnet = Network::create(def, {.quantization = fmt});
    for (double x : {-2.0, -1.3, 0.0, 0.7, 2.0}) {
        for (double y : {-2.0, -0.4, 1.1, 2.0}) {
            const double v = qnet.activate({x, y})[0];
            EXPECT_TRUE(outBound.contains(v, 1e-9))
                << "x=" << x << " y=" << y << " v=" << v;
        }
    }
}

// --- INAX schedule legality ---

TEST(ScheduleCheck, BadHwKnobsAreE3V201)
{
    InaxConfig cfg = InaxConfig::paperDefault(1);
    cfg.numPUs = 0;
    cfg.clockMhz = -5.0;
    const Report r = verifyHwConfig(cfg);
    EXPECT_GE(countRule(r, rules::kInvalidHwConfig), 2u);
    EXPECT_TRUE(
        verifyHwConfig(InaxConfig::paperDefault(1)).empty());
}

TEST(ScheduleCheck, NanKnobsFailValidateAndE3V201)
{
    for (double InaxConfig::*knob :
         {&InaxConfig::clockMhz, &InaxConfig::activationDensity}) {
        InaxConfig cfg = InaxConfig::paperDefault(1);
        cfg.*knob = std::numeric_limits<double>::quiet_NaN();
        EXPECT_FALSE(cfg.validate().ok());
        EXPECT_EQ(countRule(verifyHwConfig(cfg), rules::kInvalidHwConfig),
                  1u);
    }
}

TEST(ScheduleCheck, ValidateAndE3V201WalkOneKnobList)
{
    InaxConfig cfg = InaxConfig::paperDefault(1);
    cfg.numPUs = 0;
    cfg.numPEs = 0;
    cfg.clockMhz = 0.0;
    cfg.weightChannelWidth = 0;
    cfg.ioChannelWidth = 0;
    cfg.activationDensity = 1.5;
    // One E3V201 per knob; validate() reports the first in the list.
    EXPECT_EQ(countRule(verifyHwConfig(cfg), rules::kInvalidHwConfig),
              inaxKnobRules().size());
    const Status first = cfg.validate();
    ASSERT_FALSE(first.ok());
    EXPECT_NE(first.message().find(inaxKnobRules()[0].knob),
              std::string::npos)
        << first.message();
}

TEST(ScheduleCheck, BatchBeyondPuCountIsE3V203)
{
    InaxConfig cfg = InaxConfig::paperDefault(1);
    cfg.numPUs = 2;
    NetworkDef def = NetworkDef::empty(2, 1);
    def.conns.push_back({-1, 0, 0.5});
    const IndividualCost cost = puIndividualCost(def, cfg);
    const Report r =
        verifyBatch({cost, cost, cost}, cfg, 2, 1);
    EXPECT_TRUE(hasRule(r, rules::kBatchOverflow));
    EXPECT_FALSE(
        hasRule(verifyBatch({cost, cost}, cfg, 2, 1),
                rules::kBatchOverflow));
}

TEST(ScheduleCheck, ImpossiblePeScheduleIsE3V204)
{
    const InaxConfig cfg = InaxConfig::paperDefault(1);
    NetworkDef def = NetworkDef::empty(2, 1);
    def.conns.push_back({-1, 0, 0.5});
    IndividualCost cost = puIndividualCost(def, cfg);
    cost.peActiveCycles =
        cost.inferenceCycles * cfg.numPEs + 1;
    EXPECT_TRUE(hasRule(
        verifyIndividualCost(cost, cfg, 2, 1, "individual 0"),
        rules::kImpossiblePeSchedule));
}

TEST(ScheduleCheck, IoShapeMismatchIsE3V205)
{
    const InaxConfig cfg = InaxConfig::paperDefault(1);
    NetworkDef def = NetworkDef::empty(2, 1);
    def.conns.push_back({-1, 0, 0.5});
    const IndividualCost cost = puIndividualCost(def, cfg);
    EXPECT_TRUE(
        hasRule(verifyIndividualCost(cost, cfg, 3, 1, "x"),
                rules::kIoShapeMismatch));
    EXPECT_FALSE(
        hasRule(verifyIndividualCost(cost, cfg, 2, 1, "x"),
                rules::kIoShapeMismatch));
}

TEST(ScheduleCheck, NodeCapacityIsE3V202)
{
    InaxConfig cfg = InaxConfig::paperDefault(1);
    cfg.maxSupportedNodes = 2;
    NetworkDef def = NetworkDef::empty(1, 1);
    def.nodes.push_back({5, 0.0, Activation::Tanh,
                         Aggregation::Sum});
    def.nodes.push_back({6, 0.0, Activation::Tanh,
                         Aggregation::Sum});
    def.conns.push_back({-1, 5, 1.0});
    def.conns.push_back({5, 6, 1.0});
    def.conns.push_back({6, 0, 1.0});
    EXPECT_TRUE(hasRule(verifyDefOnHardware(def, cfg, 1, 1),
                        rules::kNodeCapacityExceeded));
    cfg.maxSupportedNodes = 128;
    EXPECT_TRUE(verifyDefOnHardware(def, cfg, 1, 1).empty());
}

// --- persist integration ---

TEST(PersistIntegration, CorruptGenomeInCheckpointDegradesToError)
{
    // A checkpoint whose stored genome fails structural verification
    // must come back as an error value naming the rule — never a
    // crash, never a silently-restored broken population.
    NeatConfig cfg = NeatConfig::forTask(2, 1, 1.0);
    cfg.populationSize = 8;
    Population pop(cfg, 7);
    persist::Checkpoint ck;
    ck.generation = 1;
    ck.population = pop.saveState();
    auto &victim = ck.population.genomes.begin()->second;
    victim.conns.emplace(ConnKey{99, 0},
                         ConnGene{{99, 0}, 1.0, true});
    const Result<persist::Checkpoint> loaded =
        persist::checkpointFromString(
            persist::checkpointToString(ck));
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.message().find("E3V001"), std::string::npos)
        << loaded.message();
}

TEST(PersistIntegration, ListCheckpointFilesEnumeratesManifest)
{
    const std::string dir =
        ::testing::TempDir() + "/verify_ckpt_list";
    NeatConfig cfg = NeatConfig::forTask(2, 1, 1.0);
    cfg.populationSize = 8;
    Population pop(cfg, 7);
    persist::Checkpoint ck;
    ck.population = pop.saveState();
    ck.generation = 2;
    ASSERT_TRUE(persist::writeCheckpoint(dir, ck, 3).ok());
    ck.generation = 4;
    ASSERT_TRUE(persist::writeCheckpoint(dir, ck, 3).ok());
    const auto files = persist::listCheckpointFiles(dir);
    ASSERT_TRUE(files.ok()) << files.message();
    ASSERT_EQ(files->size(), 2u);
    EXPECT_EQ((*files)[0].first, 2);
    EXPECT_EQ((*files)[1].first, 4);
    EXPECT_FALSE(
        persist::listCheckpointFiles(dir + "/missing").ok());
}

// --- the headline soundness guarantee ---

/**
 * Evolve for 50 generations, then fly every champion-decoded network
 * through fresh episodes checking each activate() against the static
 * per-slot bounds. Monotone folds are bit-exact; sin/gauss bounds are
 * tight to a library ulp, hence the 1e-9 slack.
 */
void
checkEmpiricalSoundness(const std::string &envName, uint64_t seed)
{
    const EnvSpec &spec = envSpec(envName);
    const std::vector<Interval> inputBounds =
        observationIntervals(spec.make()->observationSpace());
    const std::vector<NetworkDef> defs =
        evolvedPopulation(envName, 50, 48, seed);
    ASSERT_FALSE(defs.empty());

    Rng rng(seed ^ 0xE3F00DULL);
    size_t checkedActivations = 0;
    // A spread of the evolved population: every 6th individual.
    for (size_t d = 0; d < defs.size(); d += 6) {
        Network net = Network::create(defs[d]);
        const std::vector<Interval> bounds =
            networkValueBounds(net.plan(), inputBounds);
        auto env = spec.make();
        Observation obs = env->reset(rng);
        for (int t = 0; t < env->maxEpisodeSteps(); ++t) {
            for (size_t i = 0; i < obs.size(); ++i) {
                ASSERT_TRUE(inputBounds[i].contains(obs[i], 1e-9))
                    << envName << " obs[" << i << "]=" << obs[i]
                    << " outside declared ["
                    << inputBounds[i].lo << ", "
                    << inputBounds[i].hi << "]";
            }
            const std::vector<double> outputs = net.activate(obs);
            for (size_t s = 0; s < net.valueSlots(); ++s) {
                ASSERT_TRUE(bounds[s].contains(net.values()[s], 1e-9))
                    << envName << " def " << d << " slot " << s
                    << " value " << net.values()[s] << " outside ["
                    << bounds[s].lo << ", " << bounds[s].hi << "]";
                ++checkedActivations;
            }
            const StepResult r =
                env->step(decodeAction(spec, outputs));
            obs = r.observation;
            if (r.done)
                break;
        }
    }
    EXPECT_GT(checkedActivations, 1000u);
}

TEST(IntervalSoundness, CartPole50Generations)
{
    checkEmpiricalSoundness("cartpole", 21);
}

TEST(IntervalSoundness, LunarLander50Generations)
{
    checkEmpiricalSoundness("lunar_lander", 22);
}

} // namespace
} // namespace e3::verify
