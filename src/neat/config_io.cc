#include "neat/config_io.hh"

#include <set>
#include <sstream>

namespace e3 {

namespace {

const char *neatSection = "NEAT";
const char *genomeSection = "DefaultGenome";
const char *speciesSection = "DefaultSpeciesSet";
const char *reproSection = "DefaultReproduction";
const char *stagnationSection = "DefaultStagnation";

/** Upper bounds of the integer keys: population-sized counts, nodes. */
constexpr long kMaxCount = 1'000'000;
constexpr long kMaxNodes = 1 << 16;

/** Split a space/comma separated token list. */
std::vector<std::string>
splitTokens(const std::string &text)
{
    std::vector<std::string> out;
    std::string token;
    std::istringstream iss(text);
    while (iss >> token) {
        if (!token.empty() && token.back() == ',')
            token.pop_back();
        if (!token.empty())
            out.push_back(token);
    }
    return out;
}

/** Parse a space/comma separated activation list. */
Result<std::vector<Activation>>
parseActivationList(const std::string &text)
{
    std::vector<Activation> out;
    for (const auto &token : splitTokens(text)) {
        Activation act;
        if (!tryParseActivation(token, act))
            return Status::error("unknown activation '", token, "'");
        out.push_back(act);
    }
    if (out.empty())
        return Status::error("empty activation list '", text, "'");
    return out;
}

Result<std::vector<Aggregation>>
parseAggregationList(const std::string &text)
{
    std::vector<Aggregation> out;
    for (const auto &token : splitTokens(text)) {
        Aggregation agg;
        if (!tryParseAggregation(token, agg))
            return Status::error("unknown aggregation '", token, "'");
        out.push_back(agg);
    }
    if (out.empty())
        return Status::error("empty aggregation list '", text, "'");
    return out;
}

std::string
activationListToString(const std::vector<Activation> &list)
{
    std::string out;
    for (const auto &a : list) {
        if (!out.empty())
            out += ' ';
        out += activationName(a);
    }
    return out;
}

std::string
aggregationListToString(const std::vector<Aggregation> &list)
{
    std::string out;
    for (const auto &a : list) {
        if (!out.empty())
            out += ' ';
        out += aggregationName(a);
    }
    return out;
}

/**
 * Typed reads off an IniFile that latch the first error instead of
 * forcing a Result check at all ~30 call sites: once a read fails,
 * later reads return their fallback and the loader reports the latched
 * Status at the end.
 */
class IniReader
{
  public:
    explicit IniReader(const IniFile &ini) : ini_(ini) {}

    long
    getInt(const std::string &section, const char *key, long fallback)
    {
        return take(ini_.getInt(section, key, fallback), fallback);
    }

    double
    getDouble(const std::string &section, const char *key,
              double fallback)
    {
        return take(ini_.getDouble(section, key, fallback), fallback);
    }

    /**
     * A count read as a size_t: a value outside [@p min, @p max] is
     * an error naming the key and the range, never a wrapped cast.
     */
    size_t
    getCount(const std::string &section, const char *key,
             size_t fallback, long min, long max)
    {
        const long value =
            getInt(section, key, static_cast<long>(fallback));
        if (value < min || value > max) {
            note(Status::error("[", section, "] ", key, " = ", value,
                               " is outside [", min, ", ", max, "]"));
            return fallback;
        }
        return static_cast<size_t>(value);
    }

    bool
    getBool(const std::string &section, const char *key, bool fallback)
    {
        return take(ini_.getBool(section, key, fallback), fallback);
    }

    void
    rejectUnknownKeys(const std::string &section,
                      const std::set<std::string> &known)
    {
        if (!status_.ok())
            return;
        for (const auto &key : ini_.keys(section)) {
            if (!known.count(key)) {
                status_ = Status::error("unknown key '", key, "' in [",
                                        section, "]");
                return;
            }
        }
    }

    /** Latch @p status if it is the first error. */
    void
    note(const Status &status)
    {
        if (status_.ok() && !status.ok())
            status_ = status;
    }

    const Status &status() const { return status_; }

  private:
    template <typename T>
    T
    take(Result<T> r, T fallback)
    {
        if (!r.ok()) {
            note(r.status());
            return fallback;
        }
        return *r;
    }

    const IniFile &ini_;
    Status status_;
};

} // namespace

Result<NeatConfig>
neatConfigFromIni(const IniFile &ini, const NeatConfig &base)
{
    NeatConfig cfg = base;
    IniReader in(ini);

    in.rejectUnknownKeys(neatSection,
                         {"pop_size", "fitness_threshold"});
    cfg.populationSize = in.getCount(neatSection, "pop_size",
                                     base.populationSize, 2, kMaxCount);
    cfg.fitnessThreshold = in.getDouble(
        neatSection, "fitness_threshold", base.fitnessThreshold);

    in.rejectUnknownKeys(
        genomeSection,
        {"num_inputs", "num_outputs", "num_hidden", "feed_forward",
         "bias_init_mean", "bias_init_stdev", "bias_min_value",
         "bias_max_value", "bias_mutate_power", "bias_mutate_rate",
         "bias_replace_rate", "weight_init_mean", "weight_init_stdev",
         "weight_min_value", "weight_max_value", "weight_mutate_power",
         "weight_mutate_rate", "weight_replace_rate",
         "enabled_mutate_rate", "activation_default",
         "activation_mutate_rate", "activation_options",
         "aggregation_default", "aggregation_mutate_rate",
         "aggregation_options", "conn_add_prob", "conn_delete_prob",
         "node_add_prob", "node_delete_prob",
         "initial_connection_fraction"});

    auto gd = [&](const char *key, double fallback) {
        return in.getDouble(genomeSection, key, fallback);
    };

    cfg.numInputs = in.getCount(genomeSection, "num_inputs",
                                base.numInputs, 1, kMaxNodes);
    cfg.numOutputs = in.getCount(genomeSection, "num_outputs",
                                 base.numOutputs, 1, kMaxNodes);
    cfg.numHidden = in.getCount(genomeSection, "num_hidden",
                                base.numHidden, 0, kMaxNodes);
    cfg.feedForward =
        in.getBool(genomeSection, "feed_forward", base.feedForward);

    cfg.biasInitMean = gd("bias_init_mean", base.biasInitMean);
    cfg.biasInitStdev = gd("bias_init_stdev", base.biasInitStdev);
    cfg.biasMin = gd("bias_min_value", base.biasMin);
    cfg.biasMax = gd("bias_max_value", base.biasMax);
    cfg.biasMutatePower = gd("bias_mutate_power", base.biasMutatePower);
    cfg.biasMutateRate = gd("bias_mutate_rate", base.biasMutateRate);
    cfg.biasReplaceRate = gd("bias_replace_rate", base.biasReplaceRate);

    cfg.weightInitMean = gd("weight_init_mean", base.weightInitMean);
    cfg.weightInitStdev = gd("weight_init_stdev", base.weightInitStdev);
    cfg.weightMin = gd("weight_min_value", base.weightMin);
    cfg.weightMax = gd("weight_max_value", base.weightMax);
    cfg.weightMutatePower =
        gd("weight_mutate_power", base.weightMutatePower);
    cfg.weightMutateRate =
        gd("weight_mutate_rate", base.weightMutateRate);
    cfg.weightReplaceRate =
        gd("weight_replace_rate", base.weightReplaceRate);

    cfg.enabledMutateRate =
        gd("enabled_mutate_rate", base.enabledMutateRate);

    if (ini.has(genomeSection, "activation_default")) {
        const std::string name =
            ini.get(genomeSection, "activation_default", "");
        if (!tryParseActivation(name, cfg.defaultActivation))
            in.note(Status::error("unknown activation '", name, "'"));
    }
    cfg.activationMutateRate =
        gd("activation_mutate_rate", base.activationMutateRate);
    if (ini.has(genomeSection, "activation_options")) {
        Result<std::vector<Activation>> list = parseActivationList(
            ini.get(genomeSection, "activation_options", ""));
        if (list.ok())
            cfg.activationOptions = *std::move(list);
        else
            in.note(list.status());
    }

    if (ini.has(genomeSection, "aggregation_default")) {
        const std::string name =
            ini.get(genomeSection, "aggregation_default", "");
        if (!tryParseAggregation(name, cfg.defaultAggregation))
            in.note(Status::error("unknown aggregation '", name, "'"));
    }
    cfg.aggregationMutateRate =
        gd("aggregation_mutate_rate", base.aggregationMutateRate);
    if (ini.has(genomeSection, "aggregation_options")) {
        Result<std::vector<Aggregation>> list = parseAggregationList(
            ini.get(genomeSection, "aggregation_options", ""));
        if (list.ok())
            cfg.aggregationOptions = *std::move(list);
        else
            in.note(list.status());
    }

    cfg.connAddProb = gd("conn_add_prob", base.connAddProb);
    cfg.connDeleteProb = gd("conn_delete_prob", base.connDeleteProb);
    cfg.nodeAddProb = gd("node_add_prob", base.nodeAddProb);
    cfg.nodeDeleteProb = gd("node_delete_prob", base.nodeDeleteProb);
    cfg.initialConnectionFraction = gd(
        "initial_connection_fraction", base.initialConnectionFraction);

    in.rejectUnknownKeys(speciesSection,
                         {"compatibility_threshold",
                          "compatibility_disjoint_coefficient",
                          "compatibility_weight_coefficient"});
    cfg.compatibilityThreshold =
        in.getDouble(speciesSection, "compatibility_threshold",
                     base.compatibilityThreshold);
    cfg.compatibilityDisjointCoefficient = in.getDouble(
        speciesSection, "compatibility_disjoint_coefficient",
        base.compatibilityDisjointCoefficient);
    cfg.compatibilityWeightCoefficient = in.getDouble(
        speciesSection, "compatibility_weight_coefficient",
        base.compatibilityWeightCoefficient);

    in.rejectUnknownKeys(reproSection,
                         {"elitism", "survival_threshold",
                          "min_species_size", "crossover_rate"});
    cfg.elitism =
        in.getCount(reproSection, "elitism", base.elitism, 0, kMaxCount);
    cfg.survivalThreshold = in.getDouble(
        reproSection, "survival_threshold", base.survivalThreshold);
    cfg.minSpeciesSize = in.getCount(reproSection, "min_species_size",
                                     base.minSpeciesSize, 0, kMaxCount);
    cfg.crossoverRate = in.getDouble(reproSection, "crossover_rate",
                                     base.crossoverRate);

    in.rejectUnknownKeys(stagnationSection,
                         {"max_stagnation", "species_elitism"});
    cfg.maxStagnation = in.getCount(stagnationSection, "max_stagnation",
                                    base.maxStagnation, 0, kMaxCount);
    cfg.speciesElitism =
        in.getCount(stagnationSection, "species_elitism",
                    base.speciesElitism, 0, kMaxCount);

    if (!in.status().ok())
        return in.status();
    if (Status valid = cfg.validate(); !valid.ok())
        return valid;
    return cfg;
}

Result<NeatConfig>
loadNeatConfig(const std::string &path, const NeatConfig &base)
{
    Result<IniFile> ini = IniFile::load(path);
    if (!ini.ok())
        return ini.status();
    return neatConfigFromIni(*ini, base);
}

std::string
neatConfigToIni(const NeatConfig &cfg)
{
    IniFile ini;
    auto num = [](double v) {
        std::ostringstream oss;
        oss.precision(17);
        oss << v;
        return oss.str();
    };

    ini.set(neatSection, "pop_size",
            std::to_string(cfg.populationSize));
    ini.set(neatSection, "fitness_threshold",
            num(cfg.fitnessThreshold));

    ini.set(genomeSection, "num_inputs",
            std::to_string(cfg.numInputs));
    ini.set(genomeSection, "num_outputs",
            std::to_string(cfg.numOutputs));
    ini.set(genomeSection, "num_hidden",
            std::to_string(cfg.numHidden));
    ini.set(genomeSection, "feed_forward",
            cfg.feedForward ? "true" : "false");
    ini.set(genomeSection, "bias_init_mean", num(cfg.biasInitMean));
    ini.set(genomeSection, "bias_init_stdev", num(cfg.biasInitStdev));
    ini.set(genomeSection, "bias_min_value", num(cfg.biasMin));
    ini.set(genomeSection, "bias_max_value", num(cfg.biasMax));
    ini.set(genomeSection, "bias_mutate_power",
            num(cfg.biasMutatePower));
    ini.set(genomeSection, "bias_mutate_rate",
            num(cfg.biasMutateRate));
    ini.set(genomeSection, "bias_replace_rate",
            num(cfg.biasReplaceRate));
    ini.set(genomeSection, "weight_init_mean",
            num(cfg.weightInitMean));
    ini.set(genomeSection, "weight_init_stdev",
            num(cfg.weightInitStdev));
    ini.set(genomeSection, "weight_min_value", num(cfg.weightMin));
    ini.set(genomeSection, "weight_max_value", num(cfg.weightMax));
    ini.set(genomeSection, "weight_mutate_power",
            num(cfg.weightMutatePower));
    ini.set(genomeSection, "weight_mutate_rate",
            num(cfg.weightMutateRate));
    ini.set(genomeSection, "weight_replace_rate",
            num(cfg.weightReplaceRate));
    ini.set(genomeSection, "enabled_mutate_rate",
            num(cfg.enabledMutateRate));
    ini.set(genomeSection, "activation_default",
            activationName(cfg.defaultActivation));
    ini.set(genomeSection, "activation_mutate_rate",
            num(cfg.activationMutateRate));
    ini.set(genomeSection, "activation_options",
            activationListToString(cfg.activationOptions));
    ini.set(genomeSection, "aggregation_default",
            aggregationName(cfg.defaultAggregation));
    ini.set(genomeSection, "aggregation_mutate_rate",
            num(cfg.aggregationMutateRate));
    ini.set(genomeSection, "aggregation_options",
            aggregationListToString(cfg.aggregationOptions));
    ini.set(genomeSection, "conn_add_prob", num(cfg.connAddProb));
    ini.set(genomeSection, "conn_delete_prob",
            num(cfg.connDeleteProb));
    ini.set(genomeSection, "node_add_prob", num(cfg.nodeAddProb));
    ini.set(genomeSection, "node_delete_prob",
            num(cfg.nodeDeleteProb));
    ini.set(genomeSection, "initial_connection_fraction",
            num(cfg.initialConnectionFraction));

    ini.set(speciesSection, "compatibility_threshold",
            num(cfg.compatibilityThreshold));
    ini.set(speciesSection, "compatibility_disjoint_coefficient",
            num(cfg.compatibilityDisjointCoefficient));
    ini.set(speciesSection, "compatibility_weight_coefficient",
            num(cfg.compatibilityWeightCoefficient));

    ini.set(reproSection, "elitism", std::to_string(cfg.elitism));
    ini.set(reproSection, "survival_threshold",
            num(cfg.survivalThreshold));
    ini.set(reproSection, "min_species_size",
            std::to_string(cfg.minSpeciesSize));
    ini.set(reproSection, "crossover_rate", num(cfg.crossoverRate));

    ini.set(stagnationSection, "max_stagnation",
            std::to_string(cfg.maxStagnation));
    ini.set(stagnationSection, "species_elitism",
            std::to_string(cfg.speciesElitism));

    return ini.str();
}

} // namespace e3
