#include "neat/config.hh"

#include <cmath>

namespace e3 {

namespace {

constexpr const char *kNeat = "NEAT";
constexpr const char *kGenome = "DefaultGenome";
constexpr const char *kSpecies = "DefaultSpeciesSet";
constexpr const char *kRepro = "DefaultReproduction";
constexpr const char *kStagnation = "DefaultStagnation";

/** Upper bounds of the counts: population-sized counts, nodes. */
constexpr long kMaxCount = 1'000'000;
constexpr long kMaxNodes = 1 << 16;

using C = NeatConfig;
using enum NeatConfigKey::Rule;

constexpr NeatConfigKey kKeys[] = {
    {kNeat, "pop_size", &C::populationSize, Count, 2, kMaxCount},
    {kNeat, "fitness_threshold", &C::fitnessThreshold, Finite},
    {kGenome, "num_inputs", &C::numInputs, Count, 1, kMaxNodes},
    {kGenome, "num_outputs", &C::numOutputs, Count, 1, kMaxNodes},
    {kGenome, "num_hidden", &C::numHidden, Count, 0, kMaxNodes},
    {kGenome, "feed_forward", &C::feedForward},
    {kGenome, "bias_init_mean", &C::biasInitMean, Finite},
    {kGenome, "bias_init_stdev", &C::biasInitStdev, Finite},
    {kGenome, "bias_min_value", &C::biasMin, Finite},
    {kGenome, "bias_max_value", &C::biasMax, Finite},
    {kGenome, "bias_mutate_power", &C::biasMutatePower, Finite},
    {kGenome, "bias_mutate_rate", &C::biasMutateRate, Probability},
    {kGenome, "bias_replace_rate", &C::biasReplaceRate, Probability},
    {kGenome, "weight_init_mean", &C::weightInitMean, Finite},
    {kGenome, "weight_init_stdev", &C::weightInitStdev, Finite},
    {kGenome, "weight_min_value", &C::weightMin, Finite},
    {kGenome, "weight_max_value", &C::weightMax, Finite},
    {kGenome, "weight_mutate_power", &C::weightMutatePower, Finite},
    {kGenome, "weight_mutate_rate", &C::weightMutateRate, Probability},
    {kGenome, "weight_replace_rate", &C::weightReplaceRate, Probability},
    {kGenome, "enabled_mutate_rate", &C::enabledMutateRate, Probability},
    {kGenome, "activation_default", &C::defaultActivation},
    {kGenome, "activation_mutate_rate", &C::activationMutateRate, Probability},
    {kGenome, "activation_options", &C::activationOptions},
    {kGenome, "aggregation_default", &C::defaultAggregation},
    {kGenome, "aggregation_mutate_rate", &C::aggregationMutateRate,
     Probability},
    {kGenome, "aggregation_options", &C::aggregationOptions},
    {kGenome, "conn_add_prob", &C::connAddProb, Probability},
    {kGenome, "conn_delete_prob", &C::connDeleteProb, Probability},
    {kGenome, "node_add_prob", &C::nodeAddProb, Probability},
    {kGenome, "node_delete_prob", &C::nodeDeleteProb, Probability},
    {kGenome, "initial_connection_fraction", &C::initialConnectionFraction,
     Probability},
    {kSpecies, "compatibility_threshold", &C::compatibilityThreshold, Finite},
    {kSpecies, "compatibility_disjoint_coefficient",
     &C::compatibilityDisjointCoefficient, Finite},
    {kSpecies, "compatibility_weight_coefficient",
     &C::compatibilityWeightCoefficient, Finite},
    {kRepro, "elitism", &C::elitism, Count, 0, kMaxCount},
    {kRepro, "survival_threshold", &C::survivalThreshold, Probability},
    {kRepro, "min_species_size", &C::minSpeciesSize, Count, 0, kMaxCount},
    {kRepro, "crossover_rate", &C::crossoverRate, Probability},
    {kStagnation, "max_stagnation", &C::maxStagnation, Count, 0, kMaxCount},
    {kStagnation, "species_elitism", &C::speciesElitism, Count, 0, kMaxCount},
};

} // namespace

std::span<const NeatConfigKey>
neatConfigKeys()
{
    return kKeys;
}

Status
NeatConfigKey::checkRule(const NeatConfig &cfg) const
{
    if (rule == None)
        return Status();
    if (rule == Count) {
        // Back to long: prints a negative INI count as written.
        const long value =
            static_cast<long>(cfg.*std::get<size_t C::*>(member));
        if (value >= min && value <= max)
            return Status();
        return Status::error("[", section, "] ", key, " = ", value,
                             " is outside [", min, ", ", max, "]");
    }
    const double value = cfg.*std::get<double C::*>(member);
    if (!std::isfinite(value))
        return Status::error("[", section, "] ", key, " = ", value,
                             " is not finite");
    if (rule == Probability && (value < 0.0 || value > 1.0))
        return Status::error("[", section, "] ", key, " = ", value,
                             " is not a probability in [0, 1]");
    return Status();
}

NeatConfig
NeatConfig::forTask(size_t numInputs, size_t numOutputs,
                    double fitnessThreshold)
{
    NeatConfig cfg;
    cfg.numInputs = numInputs;
    cfg.numOutputs = numOutputs;
    cfg.fitnessThreshold = fitnessThreshold;
    assertOk(cfg.validate());
    return cfg;
}

Status
NeatConfig::validate() const
{
    for (const NeatConfigKey &row : neatConfigKeys()) {
        if (Status valid = row.checkRule(*this); !valid.ok())
            return valid;
    }
    if (biasMin > biasMax || weightMin > weightMax)
        return Status::error("inverted bias/weight bounds");
    if (activationOptions.empty() || aggregationOptions.empty())
        return Status::error(
            "activation/aggregation option lists must be non-empty");
    if (compatibilityThreshold <= 0.0)
        return Status::error("compatibility threshold must be positive");
    return Status();
}

} // namespace e3
