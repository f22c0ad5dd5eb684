/**
 * @file
 * e3_cli — command-line front end to the platform.
 *
 *   e3_cli list-envs
 *   e3_cli run --env pendulum --backend inax [--pu 50] [--pe 4]
 *          [--pop 200] [--generations 100] [--episodes 3] [--seed 1]
 *          [--checkpoint-dir ckpt] [--checkpoint-every 10]
 *          [--checkpoint-keep 3] [--resume]
 *          [--save champion.genome] [--csv trace.csv] [--audit file]
 *          [--trace out.json] [--trace-detail phase|task|hw]
 *          [--metrics out.csv] [--log-level debug|info|warn|error]
 *          [--quiet]
 *   e3_cli replay --env pendulum --genome champion.genome
 *          [--episodes 5] [--seed 1]
 *   e3_cli verify --env pendulum --genome champion.genome [--json]
 *   e3_cli verify --env pendulum --checkpoint-dir ckpt [--strict]
 *   e3_cli verify --batch --env pendulum --genome champion.genome
 *          [--lanes 8] [--plan plan.txt] [--dump-plan plan.txt]
 *          [--recurrent | --bits 16 --frac 8]
 *
 * `run` evolves a controller and prints the generation trace; `replay`
 * loads a saved champion and flies fresh episodes with it. --trace
 * records a Chrome trace-event JSON (open in Perfetto or
 * chrome://tracing); --metrics exports the per-generation metrics
 * registry as CSV (or JSON if the path ends in .json).
 *
 * `verify` is the offline static analyzer: structural genome rules
 * (E3V0xx), interval/quantization safety (E3V1xx, with --bits/--frac)
 * and INAX schedule legality (E3V2xx) over a saved genome or every
 * snapshot in a checkpoint directory. `verify --batch` runs the
 * batch-plan pass (E3V3xx) over a compiled SoA population program —
 * from a genome (optionally replicated across --lanes) or a plan text
 * file — compiled in the value mode --recurrent or --bits/--frac name,
 * and --dump-plan writes the plan's text form. Exit 0 means
 * clean, 1 means findings (errors; or any finding under --strict).
 * `run --verify` gates every decoded network through the structural
 * pass and exits 3 if anything fired.
 *
 * `serve` loads verified champions from checkpoint directories and
 * answers observation -> action requests over the length-prefixed TCP
 * protocol (src/serve). --port 0 binds an ephemeral port; --port-file
 * publishes whichever port was bound; --serve-seconds bounds the run
 * (otherwise serve until SIGINT/SIGTERM, then drain gracefully).
 */

#include <atomic>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "common/csv.hh"
#include "common/fs.hh"
#include "common/logging.hh"
#include "e3/experiment.hh"
#include "neat/serialize.hh"
#include "nn/batch_eval.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "persist/checkpoint.hh"
#include "serve/server.hh"
#include "verify/verify.hh"

using namespace e3;

namespace {

/** Exit code of a command-line usage error (BSD sysexits EX_USAGE). */
constexpr int kExitUsage = 64;

void usage(std::FILE *out);

/** Report a bad command line with the usage text and exit 64. */
template <typename... Parts>
[[noreturn]] void
usageError(const Parts &...parts)
{
    std::fprintf(stderr, "e3_cli: %s\n",
                 e3::detail::format(parts...).c_str());
    usage(stderr);
    std::exit(kExitUsage);
}

/** Bounds of the integer options. */
constexpr long kMaxSeed = std::numeric_limits<long>::max();
constexpr long kMaxPopulation = 1'000'000;
constexpr long kMaxEpisodes = 100'000;
constexpr long kMaxGenerations = 1'000'000;
constexpr long kMaxThreads = 1024;
constexpr long kMaxHardwareUnits = 1 << 16;

/** Tiny --key value parser; unknown keys are usage errors. */
class Args
{
  public:
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                usageError("expected --option, got '", key, "'");
            key = key.substr(2);
            // A key followed by another --option (or nothing) is a
            // boolean flag, stored as "1": e.g. --quiet.
            if (i + 1 >= argc ||
                std::string(argv[i + 1]).rfind("--", 0) == 0) {
                values_[key] = std::string("1");
                continue;
            }
            values_[key] = std::string(argv[++i]);
        }
    }

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        auto it = values_.find(key);
        if (it != values_.end()) {
            used_.insert(it->first);
            return it->second;
        }
        return fallback;
    }

    /**
     * An integer option in [lo, hi]. A value that is not a whole
     * decimal integer, or lies outside the range, is a usage error.
     */
    long
    getInt(const std::string &key, long fallback, long lo, long hi) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return fallback;
        used_.insert(it->first);
        const std::string &text = it->second;
        const char *const end = text.data() + text.size();
        long value = 0;
        const auto [stop, error] =
            std::from_chars(text.data(), end, value);
        if (error != std::errc() || stop != end || value < lo ||
            value > hi) {
            usageError("--", key, " expects an integer in [", lo, ", ",
                       hi, "], got '", text, "'");
        }
        return value;
    }

    /** A 0/1 switch; given bare (`--quiet`) it reads as 1. */
    bool
    getFlag(const std::string &key) const
    {
        return getInt(key, 0, 0, 1) != 0;
    }

    /** Usage error on any unconsumed option (catches typos). */
    void
    checkAllUsed() const
    {
        for (const auto &[key, value] : values_) {
            if (!used_.count(key))
                usageError("unknown option --", key);
        }
    }

  private:
    std::map<std::string, std::string> values_;
    mutable std::set<std::string> used_;
};

int
cmdListEnvs()
{
    std::printf("%-26s %6s %8s %9s %15s\n", "env", "inputs", "outputs",
                "paperIdx", "requiredFitness");
    for (const auto &name : envNames()) {
        const EnvSpec &spec = envSpec(name);
        std::printf("%-26s %6zu %8zu %9d %15.1f\n", spec.name.c_str(),
                    spec.numInputs, spec.numOutputs, spec.paperIndex,
                    spec.requiredFitness);
    }
    return 0;
}

/** Resolve a user-supplied env name; fatal if unknown (CLI boundary). */
const EnvSpec &
requireEnvSpec(const std::string &name)
{
    const EnvSpec *spec = findEnvSpec(name);
    if (!spec) {
        std::string known;
        for (const auto &n : envNames())
            known += (known.empty() ? "" : "|") + n;
        e3_fatal("unknown environment '", name, "' (", known, ")");
    }
    return *spec;
}

/** Resolve a --backend name against the registry; fatal if unknown. */
std::string
parseBackend(const std::string &name)
{
    const BackendRegistry &registry = BackendRegistry::instance();
    if (!registry.known(name)) {
        std::string known;
        for (const auto &n : registry.names())
            known += (known.empty() ? "" : "|") + n;
        e3_fatal("unknown backend '", name, "' (", known, ")");
    }
    return name;
}

int
cmdRun(const Args &args)
{
    const std::string envName = args.get("env", "cartpole");
    const std::string backend = parseBackend(args.get("backend", "inax"));

    ExperimentOptions options;
    options.seed =
        static_cast<uint64_t>(args.getInt("seed", 1, 0, kMaxSeed));
    options.populationSize = static_cast<size_t>(
        args.getInt("pop", 200, 2, kMaxPopulation));
    options.episodesPerEval = static_cast<size_t>(
        args.getInt("episodes", 3, 1, kMaxEpisodes));
    options.maxGenerations = static_cast<int>(
        args.getInt("generations", suiteGenerationBudget(envName), 0,
                    kMaxGenerations));
    options.threads = static_cast<size_t>(
        args.getInt("threads", 1, 1, kMaxThreads));
    options.verifyGenomes = args.getFlag("verify");

    const EnvSpec &spec = requireEnvSpec(envName);
    InaxConfig inaxCfg = InaxConfig::paperDefault(spec.numOutputs);
    inaxCfg.numPUs = static_cast<size_t>(args.getInt(
        "pu", static_cast<long>(inaxCfg.numPUs), 1, kMaxHardwareUnits));
    inaxCfg.numPEs = static_cast<size_t>(args.getInt(
        "pe", static_cast<long>(inaxCfg.numPEs), 1, kMaxHardwareUnits));
    if (Status valid = inaxCfg.validate(); !valid.ok())
        e3_fatal(valid.message());
    options.inaxConfig = inaxCfg;

    const std::string neatConfigPath = args.get("neat-config", "");
    if (!neatConfigPath.empty())
        options.neatConfigPath = neatConfigPath;

    options.checkpointDir = args.get("checkpoint-dir", "");
    options.checkpointEvery = static_cast<int>(
        args.getInt("checkpoint-every", 10, 0, kMaxGenerations));
    options.checkpointKeep = static_cast<int>(
        args.getInt("checkpoint-keep", 3, 1, kMaxGenerations));
    options.resume = args.getFlag("resume");
    if (options.resume && options.checkpointDir.empty())
        e3_fatal("--resume needs --checkpoint-dir <dir>");

    const std::string savePath = args.get("save", "");
    const std::string csvPath = args.get("csv", "");
    const std::string auditPath = args.get("audit", "");

    // Observability / verbosity knobs.
    const std::string tracePath = args.get("trace", "");
    const std::string traceDetailName = args.get("trace-detail", "phase");
    const std::string metricsPath = args.get("metrics", "");
    const std::string logLevelName = args.get("log-level", "");
    const bool quiet = args.getFlag("quiet");
    args.checkAllUsed();

    if (!logLevelName.empty()) {
        LogLevel level;
        if (!parseLogLevel(logLevelName, level))
            e3_fatal("unknown log level '", logLevelName,
                     "' (debug|info|warn|error)");
        setLogLevel(level);
    } else if (quiet) {
        setLogLevel(LogLevel::Warn);
    }

    obs::TraceDetail detail;
    if (!obs::parseTraceDetail(traceDetailName, detail))
        e3_fatal("unknown trace detail '", traceDetailName,
                 "' (phase|task|hw)");
    if (!tracePath.empty())
        obs::traceStart(detail);

    if (!quiet) {
        std::printf("running %s on %s (pop %zu, %zu episode(s)/eval, "
                    "seed %llu, %zu thread(s))\n",
                    envName.c_str(),
                    BackendRegistry::instance()
                        .displayName(backend)
                        .c_str(),
                    options.populationSize, options.episodesPerEval,
                    static_cast<unsigned long long>(options.seed),
                    options.threads);
    }

    Result<RunResult> run = runExperiment(envName, backend, options);
    if (!run.ok())
        e3_fatal(run.message());
    const RunResult result = std::move(run).value();

    if (!tracePath.empty()) {
        if (!obs::traceStop(tracePath))
            e3_fatal("--trace: cannot write '", tracePath, "'");
        if (!quiet)
            std::printf("trace written to %s\n", tracePath.c_str());
    }
    if (!metricsPath.empty()) {
        const bool json = metricsPath.size() > 5 &&
                          metricsPath.compare(metricsPath.size() - 5, 5,
                                              ".json") == 0;
        const bool ok = json ? result.metrics.writeJson(metricsPath)
                             : result.metrics.writeCsv(metricsPath);
        if (!ok)
            e3_fatal("--metrics: cannot write '", metricsPath, "'");
        if (!quiet)
            std::printf("metrics written to %s\n", metricsPath.c_str());
    }

    if (!quiet) {
        for (const auto &p : result.trace) {
            std::printf("  gen %3d  best %9.2f  mean %9.2f  "
                        "species %2zu  t=%.4fs\n",
                        p.generation, p.bestFitness, p.meanFitness,
                        p.numSpecies, p.cumulativeSeconds);
        }
    }
    std::printf("%s after %d generations; best fitness %.2f "
                "(required %.2f); modeled %.4f s\n",
                result.solved ? "SOLVED" : "stopped",
                result.generations, result.bestFitness,
                spec.requiredFitness, result.totalSeconds());
    if (!quiet && backend == "inax") {
        std::printf("INAX: %llu cycles, U(PE)=%.2f, U(PU)=%.2f\n",
                    static_cast<unsigned long long>(
                        result.inaxReport.totalCycles()),
                    result.inaxReport.pe.rate(),
                    result.inaxReport.pu.rate());
    }
    if (!quiet && options.threads > 1) {
        const Counters &rt = result.runtimeCounters;
        std::printf("runtime: %zu workers, %.0f tasks run "
                    "(%.0f stolen), %.2f s worker idle\n",
                    options.threads, rt.get("runtime.tasks_run"),
                    rt.get("runtime.tasks_stolen"),
                    rt.get("runtime.idle_seconds"));
    }

    // Determinism-sentinel digest: the same experiment must write the
    // same two numbers at every --threads setting, so CI can
    // `cmp` the files across worker counts.
    if (!auditPath.empty()) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "draws=%llu hash=%016llx\n",
                      static_cast<unsigned long long>(
                          result.rngAudit.draws),
                      static_cast<unsigned long long>(
                          result.rngAudit.hash));
        const Status written = atomicWriteFile(auditPath, buf);
        if (!written.ok())
            e3_fatal(written.message());
        std::printf("rng audit: %s", buf);
    }

    if (!csvPath.empty()) {
        CsvWriter csv;
        csv.header({"generation", "best", "mean", "species",
                    "cumulative_seconds"});
        for (const auto &p : result.trace) {
            csv.row({std::to_string(p.generation),
                     std::to_string(p.bestFitness),
                     std::to_string(p.meanFitness),
                     std::to_string(p.numSpecies),
                     std::to_string(p.cumulativeSeconds)});
        }
        if (!csv.writeFile(csvPath))
            e3_fatal("--csv: cannot write '", csvPath, "'");
        std::printf("trace written to %s\n", csvPath.c_str());
    }

    if (!savePath.empty()) {
        if (!result.champion)
            e3_fatal("--save: the run evaluated no generation, so it "
                     "has no champion");
        const Genome &champion = *result.champion;
        const Status saved = saveGenomeFile(champion, savePath);
        if (!saved.ok())
            e3_fatal(saved.message());
        std::printf("champion (fitness %.2f, %zu nodes, %zu "
                    "conns) saved to %s\n",
                    champion.fitness, champion.size().first,
                    champion.size().second, savePath.c_str());
    }

    // The --verify gate: an evolved genome should never produce a
    // structural error, so any finding outranks the solved/unsolved
    // exit distinction.
    if (!result.verifyReport.empty()) {
        std::fputs(verify::formatText(result.verifyReport).c_str(),
                   stderr);
        if (result.verifyReport.hasErrors())
            return 3;
    }
    return result.solved ? 0 : 2;
}

int
cmdReplay(const Args &args)
{
    const std::string envName = args.get("env", "cartpole");
    const std::string genomePath = args.get("genome", "");
    const auto episodes = static_cast<size_t>(
        args.getInt("episodes", 3, 1, kMaxEpisodes));
    const auto seed =
        static_cast<uint64_t>(args.getInt("seed", 1, 0, kMaxSeed));
    args.checkAllUsed();
    if (genomePath.empty())
        e3_fatal("replay needs --genome <file>");

    const EnvSpec &spec = requireEnvSpec(envName);
    Result<Genome> loaded = loadGenomeFile(genomePath);
    if (!loaded.ok())
        e3_fatal(loaded.message());
    const Genome genome = *std::move(loaded);
    const NeatConfig cfg = NeatConfig::forTask(
        spec.numInputs, spec.numOutputs, spec.requiredFitness);
    Result<Network> compiledNet = compileNetwork(genome.toNetworkDef(cfg));
    if (!compiledNet.ok())
        e3_fatal(compiledNet.message());
    Network net = std::move(compiledNet).value();

    Rng rng(seed);
    double total = 0.0;
    for (size_t e = 0; e < episodes; ++e) {
        auto env = spec.make();
        Observation obs = env->reset(rng);
        double episodeReward = 0.0;
        for (int t = 0; t < env->maxEpisodeSteps(); ++t) {
            const StepResult r =
                env->step(decodeAction(spec, net.activate(obs)));
            obs = r.observation;
            episodeReward += r.reward;
            if (r.done)
                break;
        }
        std::printf("episode %zu: reward %.2f\n", e, episodeReward);
        total += episodeReward;
    }
    std::printf("mean reward over %zu episodes: %.2f (required %.2f)\n",
                episodes, total / static_cast<double>(episodes),
                spec.requiredFitness);
    return 0;
}

/**
 * Print a verify report and return the process exit code — the shared
 * tail of `verify` and `verify --batch`.
 */
int
reportVerifyResult(const verify::Report &full, size_t artifacts,
                   bool json, bool strict)
{
    if (json) {
        std::fputs(verify::toJson(full).c_str(), stdout);
    } else {
        if (!full.empty())
            std::fputs(verify::formatText(full).c_str(), stdout);
        std::printf("verify: %zu artifact(s), %zu error(s), "
                    "%zu warning(s)%s\n",
                    artifacts, full.errorCount(), full.warningCount(),
                    full.failed(strict) ? "" : " -- clean");
    }
    return full.failed(strict) ? 1 : 0;
}

/**
 * `verify --batch`: the batch-plan pass (E3V301–E3V306) over either a
 * freshly compiled plan for --genome (replicated across --lanes) or a
 * plan text file (--plan), optionally cross-checked for fold-order
 * equivalence against the genome when both are given. The plan is
 * compiled and certified in the value mode @p mode names (--bits/--frac,
 * --recurrent). --dump-plan writes the compiled plan's text form,
 * which is how the seeded fixture plans were produced.
 */
int
cmdVerifyBatch(const EnvSpec &spec, const NetworkCompileOptions &mode,
               const std::string &genomePath,
               const std::string &planPath,
               const std::string &dumpPlanPath, size_t lanes,
               bool json, bool strict)
{
    const verify::GenomeInterface iface =
        verify::interfaceFor(spec, !mode.recurrent);
    verify::Report full;
    size_t artifacts = 0;

    std::vector<NetworkDef> defs;
    if (!genomePath.empty()) {
        ++artifacts;
        Result<Genome> loaded =
            loadGenomeFile(genomePath, GenomeLoadMode::Raw);
        if (!loaded.ok()) {
            verify::Diagnostic d = verify::makeDiagnostic(
                verify::rules::kLoadError, "", loaded.message());
            d.artifact = genomePath;
            full.add(std::move(d));
            return reportVerifyResult(full, artifacts, json, strict);
        }
        verify::Report structural =
            verify::verifyGenome(*loaded, iface);
        structural.setArtifact(genomePath);
        const bool genomeBroken = structural.hasErrors();
        full.merge(std::move(structural));
        if (genomeBroken)
            return reportVerifyResult(full, artifacts, json, strict);
        const NeatConfig cfg = NeatConfig::forTask(
            spec.numInputs, spec.numOutputs, spec.requiredFitness);
        defs.push_back(loaded->toNetworkDef(cfg));
    }

    BatchPlan plan;
    std::string planArtifact;
    if (!planPath.empty()) {
        ++artifacts;
        planArtifact = planPath;
        Result<std::string> text = readFile(planPath);
        Result<BatchPlan> parsed =
            text.ok() ? verify::batchPlanFromText(*text)
                      : Result<BatchPlan>(text.status());
        if (!parsed.ok()) {
            verify::Diagnostic d = verify::makeDiagnostic(
                verify::rules::kLoadError, "", parsed.message());
            d.artifact = planPath;
            full.add(std::move(d));
            return reportVerifyResult(full, artifacts, json, strict);
        }
        plan = *std::move(parsed);
    } else {
        ++artifacts;
        planArtifact = genomePath + ":plan";
        Result<std::unique_ptr<BatchNetwork>> compiled =
            lanes > 1 ? compileReplicated(defs.front(), lanes, mode)
                      : compilePopulation(defs, mode);
        if (!compiled.ok())
            e3_fatal("batch compile failed: ", compiled.message());
        plan = (*compiled)->plan();
    }

    if (!dumpPlanPath.empty()) {
        if (Status written = atomicWriteFile(
                dumpPlanPath, verify::batchPlanToText(plan));
            !written.ok())
            e3_fatal(written.message());
    }

    verify::Report report = verify::verifyBatchPlan(plan, defs, mode);
    report.setArtifact(planArtifact);
    full.merge(std::move(report));
    return reportVerifyResult(full, artifacts, json, strict);
}

/**
 * Static analyzer front end. One genome file or a whole checkpoint
 * directory is verified against the environment's interface, the INAX
 * hardware description, and (optionally) a fixed-point format; every
 * finding is printed with its stable rule ID. Malformed artifacts
 * degrade to E3V010 diagnostics — this command never crashes on bad
 * input, that is its whole point. With --batch the population
 * batch-plan pass (E3V301–E3V306) runs instead.
 */
int
cmdVerify(const Args &args)
{
    const std::string envName = args.get("env", "cartpole");
    const std::string genomePath = args.get("genome", "");
    const std::string checkpointDir = args.get("checkpoint-dir", "");
    const bool recurrent = args.getFlag("recurrent");
    const long bits = args.getInt("bits", 0, 0, 64);
    const long frac = args.getInt("frac", 8, 0, 64);
    const bool json = args.getFlag("json");
    const bool strict = args.getFlag("strict");
    const bool batch = args.getFlag("batch");
    const long lanes = args.getInt("lanes", 1, 1, kMaxPopulation);
    const std::string planPath = args.get("plan", "");
    const std::string dumpPlanPath = args.get("dump-plan", "");

    const EnvSpec &spec = requireEnvSpec(envName);
    InaxConfig inaxCfg = InaxConfig::paperDefault(spec.numOutputs);
    inaxCfg.numPUs = static_cast<size_t>(args.getInt(
        "pu", static_cast<long>(inaxCfg.numPUs), 1, kMaxHardwareUnits));
    inaxCfg.numPEs = static_cast<size_t>(args.getInt(
        "pe", static_cast<long>(inaxCfg.numPEs), 1, kMaxHardwareUnits));
    inaxCfg.maxSupportedNodes = static_cast<size_t>(
        args.getInt("max-nodes", static_cast<long>(inaxCfg.maxSupportedNodes),
                    1, kMaxHardwareUnits));
    if (Status valid = inaxCfg.validate(); !valid.ok())
        e3_fatal(valid.message());
    args.checkAllUsed();

    std::optional<FixedPointFormat> format;
    if (bits > 0) {
        format = FixedPointFormat{static_cast<int>(bits),
                                  static_cast<int>(frac)};
        if (Status valid = format->validate(); !valid.ok())
            e3_fatal(valid.message());
    }

    if (batch) {
        if (!checkpointDir.empty())
            e3_fatal("verify --batch works on one genome/plan, "
                     "not --checkpoint-dir");
        if (genomePath.empty() && planPath.empty())
            e3_fatal("verify --batch needs --genome <file> and/or "
                     "--plan <file>");
        if (lanes > 1 && genomePath.empty())
            e3_fatal("--lanes needs --genome to replicate");
        NetworkCompileOptions mode;
        mode.recurrent = recurrent;
        mode.quantization = format;
        return cmdVerifyBatch(spec, mode, genomePath, planPath,
                              dumpPlanPath, static_cast<size_t>(lanes),
                              json, strict);
    }
    if (!planPath.empty() || !dumpPlanPath.empty())
        e3_fatal("--plan/--dump-plan need --batch");

    if (genomePath.empty() == checkpointDir.empty())
        e3_fatal("verify needs exactly one of --genome <file> or "
                 "--checkpoint-dir <dir>");

    const verify::GenomeInterface iface =
        verify::interfaceFor(spec, !recurrent);
    const std::vector<verify::Interval> inputBounds =
        verify::observationIntervals(spec.make()->observationSpace());

    verify::Report full;
    size_t artifacts = 0;

    // All three passes over one genome, stamped with its artifact
    // name. Compile-dependent passes (hardware, quantization) only run
    // on structurally clean genomes: toNetworkDef/create assert the
    // invariants the structural pass just reported as diagnostics.
    const auto verifyOne = [&](const Genome &genome,
                               const std::string &artifact) {
        ++artifacts;
        verify::Report report = verify::verifyGenome(genome, iface);
        if (!report.hasErrors()) {
            const NeatConfig cfg = NeatConfig::forTask(
                spec.numInputs, spec.numOutputs, spec.requiredFitness);
            const NetworkDef def = genome.toNetworkDef(cfg);
            report.merge(verify::verifyDefOnHardware(
                def, inaxCfg, spec.numInputs, spec.numOutputs));
            if (format && !report.hasErrors()) {
                verify::QuantizationAnalysis analysis =
                    verify::analyzeQuantization(def, inputBounds,
                                                *format);
                report.merge(std::move(analysis.report));
                if (!json && analysis.suggestionValid &&
                    !analysis.guaranteedSafe) {
                    std::printf("%s: note: minimal safe format at "
                                "%d fractional bits is %s\n",
                                artifact.c_str(), format->fracBits,
                                analysis.suggested.describe().c_str());
                }
            }
        }
        report.setArtifact(artifact);
        full.merge(std::move(report));
    };

    const auto loadFailure = [&](const std::string &artifact,
                                 const std::string &message) {
        ++artifacts;
        verify::Diagnostic d =
            verify::makeDiagnostic(verify::rules::kLoadError, "", message);
        d.artifact = artifact;
        full.add(std::move(d));
    };

    if (!genomePath.empty()) {
        Result<Genome> loaded =
            loadGenomeFile(genomePath, GenomeLoadMode::Raw);
        if (!loaded.ok())
            loadFailure(genomePath, loaded.message());
        else
            verifyOne(*loaded, genomePath);
    } else {
        Result<std::vector<std::pair<int, std::string>>> files =
            persist::listCheckpointFiles(checkpointDir);
        if (!files.ok())
            e3_fatal(files.message());
        for (const auto &[generation, path] : *files) {
            Result<std::string> text = readFile(path);
            if (!text.ok()) {
                loadFailure(path, text.message());
                continue;
            }
            Result<persist::Checkpoint> ck =
                persist::checkpointFromString(*text);
            if (!ck.ok()) {
                loadFailure(path, ck.message());
                continue;
            }
            for (const auto &[key, genome] : ck->population.genomes)
                verifyOne(genome,
                          path + ":genome " + std::to_string(key));
            if (ck->champion)
                verifyOne(*ck->champion, path + ":champion");
        }
    }

    return reportVerifyResult(full, artifacts, json, strict);
}

std::atomic<bool> serveStopRequested{false};

void
serveSignalHandler(int)
{
    serveStopRequested.store(true);
}

/**
 * Parse "--champion env=dir[,env=dir...]" (plus the --env/
 * --checkpoint-dir single-champion shorthand) into sources.
 */
std::vector<serve::ChampionSource>
parseChampionSources(const Args &args)
{
    std::vector<serve::ChampionSource> sources;
    const std::string spec = args.get("champion", "");
    size_t start = 0;
    while (start < spec.size()) {
        size_t end = spec.find(',', start);
        if (end == std::string::npos)
            end = spec.size();
        const std::string item = spec.substr(start, end - start);
        start = end + 1;
        if (item.empty())
            continue;
        const size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0 ||
            eq + 1 == item.size())
            e3_fatal("--champion expects env=checkpoint-dir, got '",
                     item, "'");
        sources.push_back({item.substr(eq + 1), item.substr(0, eq)});
    }
    const std::string envName = args.get("env", "");
    const std::string dir = args.get("checkpoint-dir", "");
    if (envName.empty() != dir.empty())
        e3_fatal("serve needs both --env and --checkpoint-dir "
                 "(or --champion env=dir)");
    if (!envName.empty())
        sources.push_back({dir, envName});
    return sources;
}

int
cmdServe(const Args &args)
{
    serve::ServeOptions options;
    options.sources = parseChampionSources(args);
    options.cacheCapacity = static_cast<size_t>(
        args.getInt("cache", 8, 1, kMaxHardwareUnits));
    options.maxBatchSize = static_cast<size_t>(
        args.getInt("batch", 16, 1, kMaxHardwareUnits));
    options.strictVerify = args.getFlag("strict");

    const long port = args.getInt("port", 0, 0, 65535);
    const std::string portFile = args.get("port-file", "");
    const double serveSeconds = static_cast<double>(
        args.getInt("serve-seconds", 0, 0, kMaxGenerations));
    const std::string metricsPath = args.get("metrics", "");
    const std::string tracePath = args.get("trace", "");
    const std::string traceDetailName =
        args.get("trace-detail", "task");
    const bool quiet = args.getFlag("quiet");
    args.checkAllUsed();

    if (quiet)
        setLogLevel(LogLevel::Warn);
    if (!tracePath.empty()) {
        obs::TraceDetail detail;
        if (!obs::parseTraceDetail(traceDetailName, detail))
            e3_fatal("unknown trace detail '", traceDetailName,
                     "' (phase|task|hw)");
        obs::traceStart(detail);
    }

    // Handlers go in before the port file can appear: a supervisor
    // that signals as soon as it sees the file still gets the clean
    // shutdown (summary line, --metrics file).
    std::signal(SIGINT, serveSignalHandler);
    std::signal(SIGTERM, serveSignalHandler);
    Result<std::unique_ptr<serve::ChampionServer>> server =
        serve::ChampionServer::create(options);
    if (!server.ok())
        e3_fatal(server.message());

    if (Status st =
            (*server)->listen(static_cast<uint16_t>(port));
        !st.ok())
        e3_fatal(st.message());

    std::printf("serving on 127.0.0.1:%u\n", (*server)->port());
    for (const auto &champion : (*server)->champions())
        std::printf("  champion %016" PRIx64 "  %-16s gen %-5d "
                    "best %.2f  (%s)\n",
                    champion.fingerprint, champion.envName.c_str(),
                    champion.generation, champion.bestFitness,
                    champion.checkpointDir.c_str());
    std::fflush(stdout);

    if (!portFile.empty()) {
        if (Status st = atomicWriteFile(
                portFile, std::to_string((*server)->port()) + "\n");
            !st.ok())
            e3_fatal(st.message());
    }

    const auto started = std::chrono::steady_clock::now();
    while (!serveStopRequested.load()) {
        if (serveSeconds > 0.0 &&
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - started)
                    .count() >= serveSeconds)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    (*server)->stop();

    const serve::ServerCounters counters = (*server)->counters();
    const serve::BatcherStats batcher = (*server)->batcherStats();
    const serve::LatencySummary lat = (*server)->latency();
    std::printf("served %llu requests (%llu ok, "
                "%llu unknown, %llu bad, %llu draining, "
                "%llu protocol errors)\n",
                static_cast<unsigned long long>(counters.requests),
                static_cast<unsigned long long>(counters.ok),
                static_cast<unsigned long long>(
                    counters.rejectedUnknown),
                static_cast<unsigned long long>(
                    counters.rejectedBadRequest),
                static_cast<unsigned long long>(
                    counters.rejectedDraining),
                static_cast<unsigned long long>(
                    counters.protocolErrors));
    std::printf("batches %llu (max size %zu)  cache hit %llu / miss "
                "%llu / evict %llu\n",
                static_cast<unsigned long long>(batcher.batches),
                batcher.maxBatchSize,
                static_cast<unsigned long long>(
                    (*server)->cache().hits()),
                static_cast<unsigned long long>(
                    (*server)->cache().misses()),
                static_cast<unsigned long long>(
                    (*server)->cache().evictions()));
    if (lat.count > 0)
        std::printf("latency ms: p50 %.3f  p95 %.3f  p99 %.3f  "
                    "max %.3f\n",
                    lat.p50 * 1e3, lat.p95 * 1e3, lat.p99 * 1e3,
                    lat.max * 1e3);

    if (!metricsPath.empty()) {
        obs::MetricsRegistry registry;
        (*server)->exportMetrics(registry);
        registry.snapshotGeneration(0);
        const bool isJson =
            metricsPath.size() >= 5 &&
            metricsPath.rfind(".json") == metricsPath.size() - 5;
        if (!(isJson ? registry.writeJson(metricsPath)
                     : registry.writeCsv(metricsPath)))
            return 1;
    }
    if (!tracePath.empty() && !obs::traceStop(tracePath))
        return 1;
    return 0;
}

void
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage:\n"
        "  e3_cli list-envs\n"
        "  e3_cli run --env <name> --backend cpu|gpu|inax\n"
        "         [--pu N] [--pe N] [--pop N] [--generations N]\n"
        "         [--episodes N] [--seed N] [--csv file]\n"
        "         [--threads N] [--audit file]\n"
        "         [--checkpoint-dir dir] [--checkpoint-every N]\n"
        "         [--checkpoint-keep K] [--resume]\n"
        "         [--neat-config file.ini] [--save champion.genome]\n"
        "         [--trace out.json] [--trace-detail phase|task|hw]\n"
        "         [--metrics out.csv|out.json]\n"
        "         [--log-level debug|info|warn|error] [--quiet]\n"
        "         [--verify]\n"
        "  e3_cli replay --env <name> --genome <file>\n"
        "         [--episodes N] [--seed N]\n"
        "  e3_cli verify --env <name>\n"
        "         (--genome <file> | --checkpoint-dir <dir>)\n"
        "         [--recurrent] [--bits N] [--frac N]\n"
        "         [--pu N] [--pe N] [--max-nodes N]\n"
        "         [--json] [--strict]\n"
        "  e3_cli verify --batch --env <name>\n"
        "         (--genome <file> [--lanes N] | --plan <file>)\n"
        "         [--dump-plan <file>]\n"
        "         [--recurrent | --bits N [--frac N]]\n"
        "         [--json] [--strict]\n"
        "  e3_cli serve (--champion env=dir[,env=dir...] |\n"
        "         --env <name> --checkpoint-dir <dir>)\n"
        "         [--port N] [--port-file file] [--serve-seconds S]\n"
        "         [--cache N] [--batch N] [--strict]\n"
        "         [--metrics out.csv|out.json] [--trace out.json]\n"
        "         [--trace-detail phase|task|hw] [--quiet]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(stdout);
        return 1;
    }
    const std::string command = argv[1];
    if (command == "list-envs")
        return cmdListEnvs();
    if (command == "run")
        return cmdRun(Args(argc, argv, 2));
    if (command == "replay")
        return cmdReplay(Args(argc, argv, 2));
    if (command == "verify")
        return cmdVerify(Args(argc, argv, 2));
    if (command == "serve")
        return cmdServe(Args(argc, argv, 2));
    usage(stdout);
    return 1;
}
