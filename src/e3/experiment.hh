/**
 * @file
 * Experiment drivers shared by the CLI, benches and examples: construct
 * a platform for a named backend, run an environment, and extract
 * evolved workloads. Each of them evolves through E3Platform::run, the
 * one generation loop.
 */

#ifndef E3_E3_EXPERIMENT_HH
#define E3_E3_EXPERIMENT_HH

#include <functional>
#include <map>
#include <optional>

#include "common/result.hh"
#include "e3/platform.hh"
#include "inax/hw_config.hh"

namespace e3 {

/** Which platform variant evaluates the population. */
enum class BackendKind
{
    Cpu,
    Gpu,
    Inax,
};

/** Printable name, e.g. "E3-INAX". */
std::string backendKindName(BackendKind kind);

/** CLI name, e.g. "inax" (the registry key for the kind). */
std::string backendCliName(BackendKind kind);

/**
 * Options for one experiment run: a PlatformConfig plus the two
 * settings only experiments have. runExperiment's envName argument
 * overrides PlatformConfig::envName.
 */
struct ExperimentOptions : PlatformConfig
{
    /** INAX config; defaults to the paper's heuristic (PE=#out, PU=50). */
    std::optional<InaxConfig> inaxConfig;

    /**
     * Optional neat-python-style INI file layered over the task's
     * default NEAT hyperparameters. It may restate the run's shape but
     * not change it: a pop_size other than populationSize, or
     * num_inputs/num_outputs other than the environment's, is an error.
     */
    std::optional<std::string> neatConfigPath;
};

/**
 * Factory registry mapping CLI backend names ("cpu", "gpu", "inax")
 * to EvalBackend constructors. Consolidates backend construction in
 * one place: the CLI, the experiment drivers and the benches all
 * resolve backends here, so adding a backend means one registration —
 * not another arm in every switch.
 */
class BackendRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<EvalBackend>(
        const ExperimentOptions &, const EnvSpec &)>;

    /** The process-wide registry, with the built-ins pre-registered. */
    static BackendRegistry &instance();

    /** Register (or replace) a backend under its CLI name. */
    void registerBackend(const std::string &cliName,
                         const std::string &displayName,
                         Factory factory);

    bool known(const std::string &cliName) const;

    /** Registered CLI names, sorted (for usage/error messages). */
    std::vector<std::string> names() const;

    /** Printable name for a registered CLI name ("" if unknown). */
    std::string displayName(const std::string &cliName) const;

    /** Construct a backend; error status on an unknown name. */
    Result<std::unique_ptr<EvalBackend>>
    create(const std::string &cliName, const ExperimentOptions &options,
           const EnvSpec &spec) const;

  private:
    struct Entry
    {
        std::string displayName;
        Factory factory;
    };
    std::map<std::string, Entry> entries_;
};

/**
 * Run one environment on one backend.
 *
 * Determinism: equal (envName, options.seed) pairs produce identical
 * functional results on every backend — only the modeled time differs,
 * which is exactly the paper's controlled comparison.
 *
 * @pre envName is registered and the options are valid (built-in
 *      kinds are always registered); errors are caller bugs and
 *      panic. Route user input through the CLI-name overload, which
 *      reports them as error values instead.
 */
RunResult runExperiment(const std::string &envName, BackendKind kind,
                        const ExperimentOptions &options);

/**
 * Same, resolving the backend through BackendRegistry by CLI name.
 * An unknown environment or backend name, an unreadable NEAT config
 * file, or one whose shape keys conflict with the run, comes back as
 * an error Status — this is the overload for user-supplied input.
 */
Result<RunResult> runExperiment(const std::string &envName,
                                const std::string &backendCliName,
                                const ExperimentOptions &options);

/** Generation-budget presets per env, sized so runs finish quickly. */
int suiteGenerationBudget(const std::string &envName);

/**
 * The "evolved NN" workload the hardware studies consume (Tables
 * IV/V, Fig. 11): run E3Platform on the CPU backend for exactly
 * @p generations generations (the fitness threshold is lifted) and
 * return the last generation's decoded networks, in genome-key order.
 */
std::vector<NetworkDef> evolvedPopulation(const std::string &envName,
                                          int generations,
                                          size_t populationSize,
                                          uint64_t seed);

/**
 * Run E3Platform on the CPU backend (stopping early once the required
 * fitness is reached) and return the run's champion, as
 * runExperiment with the same settings would. Pair with
 * saveGenomeFile()/loadGenomeFile() for the model-replacement
 * persistence story.
 */
Genome evolvedChampion(const std::string &envName, int generations,
                       size_t populationSize, uint64_t seed);

} // namespace e3

#endif // E3_E3_EXPERIMENT_HH
