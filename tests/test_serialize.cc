#include "neat/serialize.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "neat/mutation.hh"

namespace e3 {
namespace {

Genome
sampleGenome(uint64_t seed, bool evaluated = true)
{
    NeatConfig cfg = NeatConfig::forTask(3, 2, 1.0);
    cfg.activationOptions = {Activation::Sigmoid, Activation::ReLU};
    cfg.activationMutateRate = 0.3;
    Rng rng(seed);
    InnovationTracker innovation(2);
    Genome g(42);
    g.configureNew(cfg, rng);
    for (int i = 0; i < 15; ++i)
        mutateGenome(g, cfg, rng, innovation);
    if (evaluated)
        g.fitness = -123.456;
    return g;
}

TEST(Serialize, RoundTripPreservesEverything)
{
    const Genome original = sampleGenome(1);
    Result<Genome> loaded = genomeFromString(genomeToString(original));
    ASSERT_TRUE(loaded.ok()) << loaded.message();
    const Genome &copy = *loaded;

    EXPECT_EQ(copy.key(), original.key());
    EXPECT_DOUBLE_EQ(copy.fitness, original.fitness);
    ASSERT_EQ(copy.nodes.size(), original.nodes.size());
    for (const auto &[id, node] : original.nodes) {
        const auto &loadedNode = copy.nodes.at(id);
        EXPECT_DOUBLE_EQ(loadedNode.bias, node.bias);
        EXPECT_EQ(loadedNode.act, node.act);
        EXPECT_EQ(loadedNode.agg, node.agg);
    }
    ASSERT_EQ(copy.conns.size(), original.conns.size());
    for (const auto &[key, conn] : original.conns) {
        const auto &loadedConn = copy.conns.at(key);
        EXPECT_DOUBLE_EQ(loadedConn.weight, conn.weight);
        EXPECT_EQ(loadedConn.enabled, conn.enabled);
    }
}

TEST(Serialize, UnevaluatedFitnessRoundTrips)
{
    const Genome original = sampleGenome(2, /*evaluated=*/false);
    Result<Genome> copy = genomeFromString(genomeToString(original));
    ASSERT_TRUE(copy.ok()) << copy.message();
    EXPECT_FALSE(copy->evaluated());
}

TEST(Serialize, LoadedGenomeDecodesIdentically)
{
    const NeatConfig cfg = NeatConfig::forTask(3, 2, 1.0);
    const Genome original = sampleGenome(3);
    Result<Genome> copy = genomeFromString(genomeToString(original));
    ASSERT_TRUE(copy.ok()) << copy.message();

    auto netA = Network::create(original.toNetworkDef(cfg));
    auto netB = Network::create(copy->toNetworkDef(cfg));
    const std::vector<double> x{0.25, -0.5, 0.75};
    EXPECT_EQ(netA.activate(x), netB.activate(x));
}

TEST(Serialize, CommentsAndBlanksIgnored)
{
    const Genome original = sampleGenome(4);
    const std::string text =
        "# champion from run 7\n\n" + genomeToString(original);
    Result<Genome> copy = genomeFromString(text);
    ASSERT_TRUE(copy.ok()) << copy.message();
    EXPECT_EQ(copy->nodes.size(), original.nodes.size());
}

TEST(Serialize, FileRoundTrip)
{
    const Genome original = sampleGenome(5);
    const std::string path = "/tmp/e3_test_genome.txt";
    ASSERT_TRUE(saveGenomeFile(original, path).ok());
    Result<Genome> copy = loadGenomeFile(path);
    ASSERT_TRUE(copy.ok()) << copy.message();
    EXPECT_EQ(copy->conns.size(), original.conns.size());

    const Status bad = saveGenomeFile(original, "/nonexistent/x.genome");
    EXPECT_FALSE(bad.ok());
    EXPECT_NE(bad.message().find("cannot open"), std::string::npos);
}

// Malformed input is an error status, never a crash.
TEST(Serialize, MissingFileIsError)
{
    Result<Genome> r = loadGenomeFile("/nonexistent/y.genome");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.message().find("cannot open"), std::string::npos);
}

TEST(Serialize, TruncatedStreamIsError)
{
    std::string text = genomeToString(sampleGenome(6));
    text.resize(text.size() - 5); // chop off "end\n"
    Result<Genome> r = genomeFromString(text);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.message().find("before 'end'"), std::string::npos);
}

TEST(Serialize, GarbageIsError)
{
    EXPECT_NE(genomeFromString("genome 1 0\nblorp 3\nend\n")
                  .message()
                  .find("unknown record"),
              std::string::npos);
    EXPECT_NE(genomeFromString("whatever\n")
                  .message()
                  .find("expected 'genome'"),
              std::string::npos);
    EXPECT_NE(genomeFromString("").message().find("no genome"),
              std::string::npos);
    EXPECT_NE(genomeFromString("genome 1 0\nnode 3 0.5 blorp sum\nend\n")
                  .message()
                  .find("unknown activation"),
              std::string::npos);
    EXPECT_NE(
        genomeFromString(
            "genome 1 0\nnode 3 0.5 sigmoid sum\nnode 3 0.5 sigmoid "
            "sum\nend\n")
            .message()
            .find("duplicate node"),
        std::string::npos);
}

// The load-time structural audit (GenomeLoadMode::Validated, the
// default): defects the line parser accepts syntactically are rejected
// with the matching verifier rule ID; Raw mode admits the same text so
// audit tools can load the artifact and report on it.
TEST(SerializeAudit, DanglingEndpointRejectedByDefault)
{
    const std::string text = "genome 1 nan\n"
                             "node 0 0.0 sigmoid sum\n"
                             "conn 7 0 1.0 1\n"
                             "end\n";
    Result<Genome> validated = genomeFromString(text);
    ASSERT_FALSE(validated.ok());
    EXPECT_NE(validated.message().find("E3V001"), std::string::npos)
        << validated.message();

    Result<Genome> raw = genomeFromString(text, GenomeLoadMode::Raw);
    ASSERT_TRUE(raw.ok()) << raw.message();
    EXPECT_EQ(raw->conns.size(), 1u);
}

TEST(SerializeAudit, InputDestinationRejectedByDefault)
{
    const std::string text = "genome 1 nan\n"
                             "node 0 0.0 sigmoid sum\n"
                             "conn 0 -1 1.0 1\n"
                             "end\n";
    Result<Genome> validated = genomeFromString(text);
    ASSERT_FALSE(validated.ok());
    EXPECT_NE(validated.message().find("E3V002"), std::string::npos);
    EXPECT_TRUE(genomeFromString(text, GenomeLoadMode::Raw).ok());
}

TEST(SerializeAudit, NonfiniteParametersRejectedByDefault)
{
    const std::string weightText = "genome 1 nan\n"
                                   "node 0 0.0 sigmoid sum\n"
                                   "conn -1 0 inf 1\n"
                                   "end\n";
    Result<Genome> badWeight = genomeFromString(weightText);
    ASSERT_FALSE(badWeight.ok());
    EXPECT_NE(badWeight.message().find("E3V007"), std::string::npos);

    const std::string biasText = "genome 1 nan\n"
                                 "node 0 nan sigmoid sum\n"
                                 "conn -1 0 1.0 1\n"
                                 "end\n";
    Result<Genome> badBias = genomeFromString(biasText);
    ASSERT_FALSE(badBias.ok());
    EXPECT_NE(badBias.message().find("E3V007"), std::string::npos);

    // Raw mode loads them, preserving the non-finite values for the
    // verifier to diagnose.
    Result<Genome> raw =
        genomeFromString(weightText, GenomeLoadMode::Raw);
    ASSERT_TRUE(raw.ok());
    EXPECT_TRUE(std::isinf(raw->conns.begin()->second.weight));
}

TEST(SerializeAudit, DuplicateConnectionKeyIsParseError)
{
    // Duplicate keys cannot silently last-write-win: the text format
    // is rejected in *both* modes (a std::map would have swallowed the
    // first weight without this check).
    const std::string text = "genome 1 nan\n"
                             "node 0 0.0 sigmoid sum\n"
                             "conn -1 0 1.0 1\n"
                             "conn -1 0 2.0 1\n"
                             "end\n";
    for (GenomeLoadMode mode :
         {GenomeLoadMode::Validated, GenomeLoadMode::Raw}) {
        Result<Genome> r = genomeFromString(text, mode);
        ASSERT_FALSE(r.ok());
        EXPECT_NE(r.message().find("E3V006"), std::string::npos)
            << r.message();
    }
}

TEST(SerializeAudit, NonfiniteValuesRoundTripThroughSave)
{
    Genome g(9);
    NodeGene node;
    node.id = 0;
    node.bias = std::numeric_limits<double>::infinity();
    g.nodes.emplace(0, node);
    ConnGene conn;
    conn.key = {-1, 0};
    conn.weight = std::numeric_limits<double>::quiet_NaN();
    g.conns.emplace(conn.key, conn);

    Result<Genome> copy =
        genomeFromString(genomeToString(g), GenomeLoadMode::Raw);
    ASSERT_TRUE(copy.ok()) << copy.message();
    EXPECT_TRUE(std::isinf(copy->nodes.at(0).bias));
    EXPECT_TRUE(
        std::isnan(copy->conns.at(ConnKey{-1, 0}).weight));
}

TEST(Serialize, GarbageInputIsErrorNotCrash)
{
    Result<Genome> r = genomeFromString("whatever\n");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.message().find("expected 'genome'"), std::string::npos);
}

} // namespace
} // namespace e3
