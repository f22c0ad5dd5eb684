#include "e3/experiment.hh"

#include "common/logging.hh"
#include "e3/cpu_backend.hh"
#include "neat/config_io.hh"
#include "e3/gpu_backend.hh"
#include "e3/inax_backend.hh"
#include "nn/batch_eval.hh"

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

    PlatformConfig cfg;
    cfg.envName = envName;
    cfg.seed = options.seed;
    cfg.populationSize = options.populationSize;
    cfg.episodesPerEval = options.episodesPerEval;
    cfg.maxGenerations = options.maxGenerations;
    cfg.modeledSecondsBudget = options.modeledSecondsBudget;
    cfg.threads = options.threads;
    cfg.asyncOverlap = options.asyncOverlap;
    cfg.checkpointDir = options.checkpointDir;
    cfg.checkpointEvery = options.checkpointEvery;
    cfg.checkpointKeep = options.checkpointKeep;
    cfg.resume = options.resume;
    cfg.verifyGenomes = options.verifyGenomes;

    Result<std::unique_ptr<EvalBackend>> backend =
        BackendRegistry::instance().create(backendCliName, options,
                                           spec);
    if (!backend.ok())
        return backend.status();

    E3Platform platform(cfg, std::move(backend).value());
    if (options.neatConfigPath) {
        Result<NeatConfig> loaded = loadNeatConfig(
            *options.neatConfigPath, platform.neatConfig());
        if (!loaded.ok())
            return loaded.status();
        NeatConfig layered = *std::move(loaded);
        // The interface shape is the environment's contract; a config
        // file cannot change it.
        layered.numInputs = spec.numInputs;
        layered.numOutputs = spec.numOutputs;
        layered.populationSize = cfg.populationSize;
        platform.neatConfig() = layered;
    }
    return platform.run();
}

std::vector<RunResult>
runSuite(BackendKind kind, const ExperimentOptions &options)
{
    std::vector<RunResult> results;
    for (const auto &spec : envSuite()) {
        ExperimentOptions opt = options;
        opt.maxGenerations = std::min(
            options.maxGenerations, suiteGenerationBudget(spec.name));
        results.push_back(runExperiment(spec.name, kind, opt));
    }
    return results;
}

namespace {

/**
 * Shared evolution loop for the workload-extraction helpers: evaluate
 * with one episode per individual per generation, stop at the
 * generation cap (or, if stopAtSolved, at the fitness threshold) with
 * the final generation evaluated. Rollout runs through the platform's
 * compile pipeline and evaluation runtime, serially.
 */
Population
evolveAgainstEnv(const EnvSpec &spec, int generations,
                 size_t populationSize, uint64_t seed,
                 bool stopAtSolved)
{
    NeatConfig cfg = NeatConfig::forTask(
        spec.numInputs, spec.numOutputs, spec.requiredFitness);
    cfg.populationSize = populationSize;
    Population pop(cfg, seed);
    runtime::ParallelEval runtime{runtime::RuntimeConfig{}};

    for (int gen = 0;; ++gen) {
        // Lane i is the i-th genome in key order, in both loops.
        std::vector<NetworkDef> defs;
        defs.reserve(pop.genomes().size());
        for (const auto &[key, genome] : pop.genomes())
            defs.push_back(genome.toNetworkDef(cfg));
        const std::unique_ptr<BatchNetwork> batch =
            compilePopulation(defs).value();

        runtime::EvalPlan plan;
        plan.spec = &spec;
        plan.lanes = defs.size();
        plan.episodeSeeds = {
            seed ^ (0x51ED270BULL * (static_cast<uint64_t>(gen) + 1))};
        plan.policy = rolloutPolicy(*batch, spec);
        const runtime::EvalOutcome outcome = runtime.evaluate(plan);
        size_t lane = 0;
        for (auto &[key, genome] : pop.genomes())
            genome.fitness = outcome.fitness[lane++];

        if (gen >= generations - 1 ||
            (stopAtSolved && pop.solved()))
            break;
        pop.advance();
    }
    return pop;
}

} // namespace

std::vector<NetworkDef>
evolvedPopulation(const std::string &envName, int generations,
                  size_t populationSize, uint64_t seed)
{
    Population pop =
        evolveAgainstEnv(envSpec(envName), generations, populationSize,
                         seed, /*stopAtSolved=*/false);
    std::vector<NetworkDef> defs;
    for (const auto &[key, genome] : pop.genomes())
        defs.push_back(genome.toNetworkDef(pop.config()));
    return defs;
}

Genome
evolvedChampion(const std::string &envName, int generations,
                size_t populationSize, uint64_t seed)
{
    Population pop =
        evolveAgainstEnv(envSpec(envName), generations, populationSize,
                         seed, /*stopAtSolved=*/true);
    return pop.best();
}

int
suiteGenerationBudget(const std::string &envName)
{
    // Budgets sized to each task's convergence behaviour so suite-wide
    // benches complete in minutes; unsolved-at-budget mirrors the
    // paper's "runtime constraint" cut-off.
    if (envName == "cartpole")
        return 30;
    if (envName == "acrobot")
        return 40;
    if (envName == "mountain_car")
        return 60;
    if (envName == "bipedal_walker")
        return 60;
    if (envName == "lunar_lander")
        return 80;
    if (envName == "pendulum")
        return 150;
    if (envName == "catch")
        return 60;
    return 100;
}

} // namespace e3
