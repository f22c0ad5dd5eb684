#include "e3/experiment.hh"

#include <limits>

#include "common/logging.hh"
#include "e3/cpu_backend.hh"
#include "e3/gpu_backend.hh"
#include "e3/inax_backend.hh"
#include "neat/config_io.hh"

namespace e3 {

std::string
backendCliName(BackendKind kind)
{
    static const char *const names[] = {"cpu", "gpu", "inax"};
    const auto idx = static_cast<size_t>(kind);
    e3_assert(idx < std::size(names), "unhandled backend kind");
    return names[idx];
}

std::string
backendKindName(BackendKind kind)
{
    return BackendRegistry::instance().displayName(backendCliName(kind));
}

BackendRegistry &
BackendRegistry::instance()
{
    static BackendRegistry registry = [] {
        BackendRegistry r;
        r.registerBackend(
            "cpu", "E3-CPU",
            [](const ExperimentOptions &, const EnvSpec &) {
                return std::make_unique<CpuBackend>();
            });
        r.registerBackend(
            "gpu", "E3-GPU",
            [](const ExperimentOptions &, const EnvSpec &) {
                return std::make_unique<GpuBackend>();
            });
        r.registerBackend(
            "inax", "E3-INAX",
            [](const ExperimentOptions &options, const EnvSpec &spec) {
                const InaxConfig cfg =
                    options.inaxConfig
                        ? *options.inaxConfig
                        : InaxConfig::paperDefault(spec.numOutputs);
                return std::make_unique<InaxBackend>(cfg);
            });
        return r;
    }();
    return registry;
}

void
BackendRegistry::registerBackend(const std::string &cliName,
                                 const std::string &displayName,
                                 Factory factory)
{
    entries_[cliName] = Entry{displayName, std::move(factory)};
}

bool
BackendRegistry::known(const std::string &cliName) const
{
    return entries_.count(cliName) > 0;
}

std::vector<std::string>
BackendRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &[name, entry] : entries_)
        out.push_back(name);
    return out;
}

std::string
BackendRegistry::displayName(const std::string &cliName) const
{
    auto it = entries_.find(cliName);
    return it == entries_.end() ? std::string() : it->second.displayName;
}

Result<std::unique_ptr<EvalBackend>>
BackendRegistry::create(const std::string &cliName,
                        const ExperimentOptions &options,
                        const EnvSpec &spec) const
{
    auto it = entries_.find(cliName);
    if (it == entries_.end()) {
        std::string known;
        for (const auto &name : names())
            known += (known.empty() ? "" : "|") + name;
        return Status::error("unknown backend '", cliName, "' (", known,
                             ")");
    }
    return it->second.factory(options, spec);
}

RunResult
runExperiment(const std::string &envName, BackendKind kind,
              const ExperimentOptions &options)
{
    // Built-in kinds are always registered, so an error here is a
    // caller bug (unknown env, unreadable config) and value() panics.
    return runExperiment(envName, backendCliName(kind), options)
        .value();
}

Result<RunResult>
runExperiment(const std::string &envName,
              const std::string &backendCliName,
              const ExperimentOptions &options)
{
    const EnvSpec *specPtr = findEnvSpec(envName);
    if (!specPtr)
        return Status::error("unknown environment '", envName, "'");
    const EnvSpec &spec = *specPtr;

    PlatformConfig cfg = options;
    cfg.envName = envName;

    Result<std::unique_ptr<EvalBackend>> backend =
        BackendRegistry::instance().create(backendCliName, options,
                                           spec);
    if (!backend.ok())
        return backend.status();

    E3Platform platform(cfg, std::move(backend).value());
    if (options.neatConfigPath) {
        const std::string &path = *options.neatConfigPath;
        Result<NeatConfig> loaded =
            loadNeatConfig(path, platform.neatConfig());
        if (!loaded.ok())
            return loaded.status();
        // The population size is the run's and the interface shape the
        // environment's; a file may restate them but not change them.
        for (const NeatConfigKey &k : neatConfigKeys()) {
            const auto *count = std::get_if<size_t NeatConfig::*>(&k.member);
            if (!count || (*count != &NeatConfig::populationSize &&
                           *count != &NeatConfig::numInputs &&
                           *count != &NeatConfig::numOutputs))
                continue;
            const size_t fileValue = (*loaded).*(*count);
            const size_t runValue = platform.neatConfig().*(*count);
            if (fileValue != runValue)
                return Status::error(path, ": [", k.section, "] ", k.key,
                                     " = ", fileValue,
                                     " conflicts with the run's value ",
                                     runValue);
        }
        platform.neatConfig() = *std::move(loaded);
    }
    return platform.run();
}

std::vector<NetworkDef>
evolvedPopulation(const std::string &envName, int generations,
                  size_t populationSize, uint64_t seed)
{
    PlatformConfig cfg;
    cfg.envName = envName;
    cfg.seed = seed;
    cfg.populationSize = populationSize;
    cfg.maxGenerations = generations;
    E3Platform platform(cfg, std::make_unique<CpuBackend>());
    // Lift the fitness threshold so the run lasts every generation.
    platform.neatConfig().fitnessThreshold =
        std::numeric_limits<double>::max();
    return platform.run().lastGenerationDefs;
}

Genome
evolvedChampion(const std::string &envName, int generations,
                size_t populationSize, uint64_t seed)
{
    ExperimentOptions options;
    options.seed = seed;
    options.populationSize = populationSize;
    options.maxGenerations = generations;
    RunResult run = runExperiment(envName, BackendKind::Cpu, options);
    e3_assert(run.champion, "no generation of '", envName,
              "' was evaluated");
    return *std::move(run.champion);
}

int
suiteGenerationBudget(const std::string &envName)
{
    // Budgets sized to each task's convergence behaviour so suite-wide
    // benches complete in minutes; unsolved-at-budget mirrors the
    // paper's "runtime constraint" cut-off.
    static const std::map<std::string, int> budgets{
        {"cartpole", 30},       {"acrobot", 40},      {"mountain_car", 60},
        {"bipedal_walker", 60}, {"lunar_lander", 80}, {"pendulum", 150},
        {"catch", 60}};
    const auto it = budgets.find(envName);
    return it == budgets.end() ? 100 : it->second;
}

} // namespace e3
