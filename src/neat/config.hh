/**
 * @file
 * NEAT hyperparameter configuration, mirroring neat-python's
 * [DefaultGenome]/[DefaultSpeciesSet]/[DefaultReproduction]/
 * [DefaultStagnation] sections. Defaults follow the paper's setup where
 * stated (population 200, mutation and crossover rate 0.5, start with no
 * hidden nodes) and neat-python's shipped defaults elsewhere.
 */

#ifndef E3_NEAT_CONFIG_HH
#define E3_NEAT_CONFIG_HH

#include <cstddef>
#include <span>
#include <variant>
#include <vector>

#include "common/result.hh"
#include "nn/activations.hh"
#include "nn/aggregations.hh"

namespace e3 {

/** Complete NEAT run configuration. */
struct NeatConfig
{
    // --- problem shape ---
    size_t numInputs = 1;
    size_t numOutputs = 1;
    size_t numHidden = 0;       ///< paper: start with no hidden nodes
    size_t populationSize = 200;
    double fitnessThreshold = 0.0; ///< stop once best fitness reaches

    // --- bias gene ---
    double biasInitMean = 0.0;
    double biasInitStdev = 1.0;
    double biasMin = -30.0;
    double biasMax = 30.0;
    double biasMutatePower = 0.5;  ///< stddev of perturbation
    double biasMutateRate = 0.7;   ///< chance of perturbation
    double biasReplaceRate = 0.1;  ///< chance of full re-draw

    // --- weight gene ---
    double weightInitMean = 0.0;
    double weightInitStdev = 1.0;
    double weightMin = -30.0;
    double weightMax = 30.0;
    double weightMutatePower = 0.5;
    double weightMutateRate = 0.8;
    double weightReplaceRate = 0.1;

    // --- enabled flag ---
    double enabledMutateRate = 0.01; ///< chance of toggling a connection

    // --- activation / aggregation genes ---
    Activation defaultActivation = Activation::Sigmoid;
    double activationMutateRate = 0.0;
    std::vector<Activation> activationOptions = {Activation::Sigmoid};
    Aggregation defaultAggregation = Aggregation::Sum;
    double aggregationMutateRate = 0.0;
    std::vector<Aggregation> aggregationOptions = {Aggregation::Sum};

    // --- structural mutation (paper: "mutation ... rate=0.5") ---
    double connAddProb = 0.5;
    double connDeleteProb = 0.2;
    double nodeAddProb = 0.2;
    double nodeDeleteProb = 0.1;

    /** Fraction of possible input->output links present initially. */
    double initialConnectionFraction = 1.0;

    /**
     * Restrict evolution to acyclic topologies (the paper's setting).
     * When false, add-connection may create cycles and individuals
     * compile in the batch engine's recurrent mode
     * (NetworkCompileOptions::recurrent), as the platform does.
     */
    bool feedForward = true;

    // --- compatibility / speciation ---
    double compatibilityDisjointCoefficient = 1.0;
    double compatibilityWeightCoefficient = 0.5;
    double compatibilityThreshold = 3.0;

    // --- reproduction (paper: "crossover rate=0.5") ---
    size_t elitism = 2;            ///< genomes copied verbatim per species
    double survivalThreshold = 0.2; ///< parent pool fraction per species
    size_t minSpeciesSize = 2;
    double crossoverRate = 0.5;    ///< else asexual (mutation-only)

    // --- stagnation ---
    size_t maxStagnation = 15;
    size_t speciesElitism = 2;     ///< best species immune to stagnation

    /**
     * Build a config shaped for an environment.
     * @param numInputs observation dimension
     * @param numOutputs network output nodes
     * @param fitnessThreshold required fitness (stop condition)
     */
    static NeatConfig forTask(size_t numInputs, size_t numOutputs,
                              double fitnessThreshold);

    /** Error naming the first broken key rule or cross-field check. */
    Status validate() const;

    bool operator==(const NeatConfig &) const = default;
};

/**
 * One NEAT setting: its neat-python INI section and key, the
 * NeatConfig member holding it and the rule its value obeys. The INI
 * reader and writer (neat/config_io) and NeatConfig::validate() all
 * walk neatConfigKeys(), which lists every setting once.
 */
struct NeatConfigKey
{
    /** The check on a value; a Count must lie in [min, max]. */
    enum class Rule { None, Count, Probability, Finite };

    using Member =
        std::variant<size_t NeatConfig::*, double NeatConfig::*,
                     bool NeatConfig::*, Activation NeatConfig::*,
                     Aggregation NeatConfig::*,
                     std::vector<Activation> NeatConfig::*,
                     std::vector<Aggregation> NeatConfig::*>;

    const char *section;
    const char *key;
    Member member;
    Rule rule = Rule::None;
    long min = 0, max = 0; ///< Count bounds

    /** Error naming the key if @p cfg's value breaks the rule. */
    Status checkRule(const NeatConfig &cfg) const;
};

/** Every NEAT setting, grouped by INI section. */
std::span<const NeatConfigKey> neatConfigKeys();

} // namespace e3

#endif // E3_NEAT_CONFIG_HH
