#include "neat/config_io.hh"

#include <gtest/gtest.h>

namespace e3 {
namespace {

IniFile
parseOk(const std::string &text)
{
    Result<IniFile> ini = IniFile::parseString(text);
    EXPECT_TRUE(ini.ok()) << ini.message();
    return *std::move(ini);
}

NeatConfig
fromIniOk(const IniFile &ini, const NeatConfig &base = NeatConfig{})
{
    Result<NeatConfig> cfg = neatConfigFromIni(ini, base);
    EXPECT_TRUE(cfg.ok()) << cfg.message();
    return *std::move(cfg);
}

TEST(ConfigIo, LoadsNeatPythonStyleFile)
{
    const IniFile ini = parseOk(
        "[NEAT]\n"
        "pop_size = 123\n"
        "fitness_threshold = 475\n"
        "[DefaultGenome]\n"
        "num_inputs = 4\n"
        "num_outputs = 2\n"
        "conn_add_prob = 0.7\n"
        "activation_default = tanh\n"
        "activation_options = sigmoid tanh relu\n"
        "feed_forward = false\n"
        "[DefaultSpeciesSet]\n"
        "compatibility_threshold = 2.5\n"
        "[DefaultReproduction]\n"
        "elitism = 3\n"
        "crossover_rate = 0.25\n"
        "[DefaultStagnation]\n"
        "max_stagnation = 7\n");
    const NeatConfig cfg = fromIniOk(ini);
    EXPECT_EQ(cfg.populationSize, 123u);
    EXPECT_DOUBLE_EQ(cfg.fitnessThreshold, 475.0);
    EXPECT_EQ(cfg.numInputs, 4u);
    EXPECT_EQ(cfg.numOutputs, 2u);
    EXPECT_DOUBLE_EQ(cfg.connAddProb, 0.7);
    EXPECT_EQ(cfg.defaultActivation, Activation::Tanh);
    ASSERT_EQ(cfg.activationOptions.size(), 3u);
    EXPECT_EQ(cfg.activationOptions[2], Activation::ReLU);
    EXPECT_FALSE(cfg.feedForward);
    EXPECT_DOUBLE_EQ(cfg.compatibilityThreshold, 2.5);
    EXPECT_EQ(cfg.elitism, 3u);
    EXPECT_DOUBLE_EQ(cfg.crossoverRate, 0.25);
    EXPECT_EQ(cfg.maxStagnation, 7u);
}

TEST(ConfigIo, UnsetKeysKeepBaseValues)
{
    NeatConfig base = NeatConfig::forTask(8, 4, 100.0);
    base.weightMutatePower = 0.123;
    const IniFile ini = parseOk("[NEAT]\npop_size = 50\n");
    const NeatConfig cfg = fromIniOk(ini, base);
    EXPECT_EQ(cfg.populationSize, 50u);
    EXPECT_EQ(cfg.numInputs, 8u);
    EXPECT_DOUBLE_EQ(cfg.weightMutatePower, 0.123);
    EXPECT_DOUBLE_EQ(cfg.fitnessThreshold, 100.0);
}

TEST(ConfigIo, AggregationKeys)
{
    const IniFile ini = parseOk(
        "[DefaultGenome]\n"
        "aggregation_default = max\n"
        "aggregation_mutate_rate = 0.1\n"
        "aggregation_options = sum max mean\n");
    const NeatConfig cfg = fromIniOk(ini);
    EXPECT_EQ(cfg.defaultAggregation, Aggregation::Max);
    EXPECT_DOUBLE_EQ(cfg.aggregationMutateRate, 0.1);
    ASSERT_EQ(cfg.aggregationOptions.size(), 3u);
    EXPECT_EQ(cfg.aggregationOptions[2], Aggregation::Mean);
}

TEST(ConfigIo, RoundTripsThroughIniText)
{
    NeatConfig original = NeatConfig::forTask(3, 2, -180.0);
    original.populationSize = 77;
    original.connAddProb = 0.35;
    original.activationOptions = {Activation::Sigmoid,
                                  Activation::Gauss};
    original.defaultAggregation = Aggregation::Mean;
    original.aggregationOptions = {Aggregation::Sum,
                                   Aggregation::Mean};
    original.feedForward = false;
    original.crossoverRate = 0.9;

    const std::string text = neatConfigToIni(original);
    const NeatConfig copy = fromIniOk(parseOk(text));
    EXPECT_EQ(copy.populationSize, original.populationSize);
    EXPECT_DOUBLE_EQ(copy.connAddProb, original.connAddProb);
    EXPECT_EQ(copy.activationOptions, original.activationOptions);
    EXPECT_EQ(copy.defaultAggregation, original.defaultAggregation);
    EXPECT_EQ(copy.aggregationOptions, original.aggregationOptions);
    EXPECT_EQ(copy.feedForward, original.feedForward);
    EXPECT_DOUBLE_EQ(copy.crossoverRate, original.crossoverRate);
    EXPECT_DOUBLE_EQ(copy.fitnessThreshold,
                     original.fitnessThreshold);
}

TEST(ConfigIo, UnknownKeysError)
{
    const IniFile ini = parseOk(
        "[DefaultGenome]\nconn_add_probability = 0.5\n");
    const Result<NeatConfig> cfg = neatConfigFromIni(ini);
    ASSERT_FALSE(cfg.ok());
    EXPECT_NE(cfg.message().find("unknown key"), std::string::npos);
}

TEST(ConfigIo, InvalidValuesError)
{
    const IniFile ini = parseOk(
        "[DefaultGenome]\nconn_add_prob = 1.5\n");
    // validate() rejects the out-of-range probability.
    const Result<NeatConfig> cfg = neatConfigFromIni(ini);
    ASSERT_FALSE(cfg.ok());
    EXPECT_NE(cfg.message().find("probability"), std::string::npos);

    // Integer counts are range-checked where they are read, so a
    // negative one never wraps to a huge size_t. Each error names the
    // key and its range.
    const struct
    {
        const char *text;
        const char *expected;
    } counts[] = {
        {"[NEAT]\npop_size = -3\n", "pop_size = -3 is outside [2, "},
        {"[NEAT]\npop_size = 1\n", "pop_size = 1 is outside [2, "},
        {"[NEAT]\npop_size = 99999999999\n", "pop_size"},
        {"[DefaultGenome]\nnum_inputs = 0\n", "num_inputs = 0"},
        {"[DefaultGenome]\nnum_outputs = -2\n", "num_outputs = -2"},
        {"[DefaultGenome]\nnum_hidden = -1\n",
         "num_hidden = -1 is outside [0, 65536]"},
        {"[DefaultGenome]\nnum_hidden = 70000\n", "num_hidden = 70000"},
        {"[DefaultReproduction]\nelitism = -1\n", "elitism = -1"},
        {"[DefaultReproduction]\nmin_species_size = -4\n",
         "min_species_size = -4"},
        {"[DefaultStagnation]\nmax_stagnation = -15\n",
         "max_stagnation = -15"},
        {"[DefaultStagnation]\nspecies_elitism = 2000000\n",
         "species_elitism = 2000000 is outside [0, 1000000]"},
    };
    for (const auto &c : counts) {
        const Result<NeatConfig> bad = neatConfigFromIni(parseOk(c.text));
        ASSERT_FALSE(bad.ok()) << c.text;
        EXPECT_NE(bad.message().find(c.expected), std::string::npos)
            << c.text << " -> " << bad.message();
    }
}

TEST(ConfigIo, BadActivationError)
{
    const IniFile ini = parseOk(
        "[DefaultGenome]\nactivation_default = softmax\n");
    const Result<NeatConfig> cfg = neatConfigFromIni(ini);
    ASSERT_FALSE(cfg.ok());
    EXPECT_NE(cfg.message().find("unknown activation"),
              std::string::npos);
}

TEST(ConfigIo, UnparsableNumberError)
{
    const IniFile ini = parseOk("[NEAT]\npop_size = many\n");
    const Result<NeatConfig> cfg = neatConfigFromIni(ini);
    ASSERT_FALSE(cfg.ok());
    EXPECT_NE(cfg.message().find("not an integer"), std::string::npos);
}

TEST(ConfigIo, MissingConfigFileError)
{
    const Result<NeatConfig> cfg =
        loadNeatConfig("/nonexistent/neat.ini");
    ASSERT_FALSE(cfg.ok());
    EXPECT_NE(cfg.message().find("cannot open"), std::string::npos);
}

} // namespace
} // namespace e3
