#include "neat/config_io.hh"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

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

    // Lists may separate names by commas alone, or by commas and spaces.
    const NeatConfig commas = fromIniOk(parseOk(
        "[DefaultGenome]\n"
        "activation_options = sigmoid,tanh\n"
        "aggregation_options = sum,max, mean\n"));
    EXPECT_EQ(commas.activationOptions,
              (std::vector<Activation>{Activation::Sigmoid,
                                       Activation::Tanh}));
    EXPECT_EQ(commas.aggregationOptions,
              (std::vector<Aggregation>{Aggregation::Sum, Aggregation::Max,
                                        Aggregation::Mean}));
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
    EXPECT_EQ(fromIniOk(parseOk(text)), original);
    EXPECT_EQ(fromIniOk(parseOk(neatConfigToIni(NeatConfig{}))),
              NeatConfig{});
}

std::string
readFixture(const std::string &name)
{
    std::ifstream in(std::string(E3_NEAT_CONFIG_FIXTURE_DIR) + "/" + name);
    EXPECT_TRUE(in) << name;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(ConfigIo, WriterOutputMatchesRecordedFixtures)
{
    // The fixtures pin every key, section and number format byte for
    // byte: the checkpoint fingerprint hashes this text, so any change
    // to it makes every existing snapshot start fresh.
    EXPECT_EQ(neatConfigToIni(NeatConfig{}), readFixture("default.ini"));

    NeatConfig task = NeatConfig::forTask(3, 2, -180.0);
    task.populationSize = 77;
    task.connAddProb = 0.35;
    task.defaultActivation = Activation::Tanh;
    task.activationOptions = {Activation::Sigmoid, Activation::Gauss,
                              Activation::Tanh};
    task.defaultAggregation = Aggregation::Mean;
    task.aggregationOptions = {Aggregation::Sum, Aggregation::Mean};
    task.feedForward = false;
    task.crossoverRate = 0.9;
    EXPECT_EQ(neatConfigToIni(task), readFixture("task.ini"));
}

TEST(ConfigIo, KeyTableListsEveryKeyOnce)
{
    std::set<std::string> keys;
    for (const NeatConfigKey &k : neatConfigKeys())
        keys.insert(std::string(k.section) + "." + k.key);
    EXPECT_EQ(keys.size(), neatConfigKeys().size());
    EXPECT_EQ(keys.size(), 41u);
}

TEST(ConfigIo, ValidateRangeChecksInCodeConfigs)
{
    // A config built in code meets the same caps, with the same
    // message, as one read from INI text.
    NeatConfig cfg;
    cfg.populationSize = 2'000'000;
    const Status status = cfg.validate();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.message(),
              "[NEAT] pop_size = 2000000 is outside [2, 1000000]");
    const Result<NeatConfig> fromIni =
        neatConfigFromIni(parseOk("[NEAT]\npop_size = 2000000\n"));
    ASSERT_FALSE(fromIni.ok());
    EXPECT_EQ(fromIni.message(), status.message());
}

TEST(ConfigIo, UnknownKeysError)
{
    const IniFile ini = parseOk(
        "[DefaultGenome]\nconn_add_probability = 0.5\n");
    const Result<NeatConfig> cfg = neatConfigFromIni(ini);
    ASSERT_FALSE(cfg.ok());
    EXPECT_NE(cfg.message().find("unknown key"), std::string::npos);
}

TEST(ConfigIo, UnknownSectionsError)
{
    // A misspelled header must not drop the keys under it.
    const Result<NeatConfig> typo = neatConfigFromIni(
        parseOk("[DefaultGenom]\nconn_add_prob = 5\n"));
    ASSERT_FALSE(typo.ok());
    EXPECT_EQ(typo.message(), "unknown section [DefaultGenom]");

    // So must a key written before any header.
    const Result<NeatConfig> headless =
        neatConfigFromIni(parseOk("pop_size = 50\n"));
    ASSERT_FALSE(headless.ok());
    EXPECT_EQ(headless.message(), "unknown section []");
}

TEST(ConfigIo, InvalidValuesError)
{
    const IniFile ini = parseOk(
        "[DefaultGenome]\nconn_add_prob = 1.5\n");
    // validate() rejects the out-of-range probability.
    const Result<NeatConfig> cfg = neatConfigFromIni(ini);
    ASSERT_FALSE(cfg.ok());
    EXPECT_NE(cfg.message().find("probability"), std::string::npos);

    // Counts are range-checked, a negative one printed as written;
    // reals must be finite. Each error names the key (and the range).
    const struct
    {
        const char *text;
        const char *expected;
    } cases[] = {
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
        {"[DefaultGenome]\nweight_mutate_power = nan\n",
         "weight_mutate_power = nan is not finite"},
        {"[NEAT]\nfitness_threshold = nan\n", "fitness_threshold = nan"},
        {"[NEAT]\nfitness_threshold = inf\n", "fitness_threshold = inf"},
        {"[DefaultGenome]\nbias_init_mean = -inf\n",
         "bias_init_mean = -inf"},
        {"[DefaultGenome]\nconn_add_prob = nan\n", "conn_add_prob = nan"},
        {"[DefaultSpeciesSet]\ncompatibility_threshold = inf\n",
         "compatibility_threshold = inf"},
    };
    for (const auto &c : cases) {
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
