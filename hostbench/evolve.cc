/**
 * @file
 * The evolve workloads: `runExperiment` (what `e3_cli run` calls) timed
 * end to end, and a traced driver that repeats E3Platform::run's loop
 * through each layer's public entry point with a span around every
 * call. The driver's fitness trace, RngAudit digest and modeled total
 * must equal the untraced run's for the same seed, which proves it does
 * the program's work.
 */

#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "e3/experiment.hh"
#include "e3/inax_backend.hh"
#include "env/env_registry.hh"
#include "nn/batch_eval.hh"
#include "obs/trace.hh"
#include "persist/checkpoint.hh"

namespace e3::hostbench {

namespace {

/** One evolve workload: a fixed `e3_cli run` configuration. */
struct EvolveWorkload
{
    const char *name;
    const char *env;
    const char *backend;
    bool allThreads;   ///< min(4, nproc) workers, else 1
    bool asyncOverlap;
    bool checkpoint;   ///< snapshot every 10 generations
    size_t population;
    int generations;
    /**
     * Episodes averaged per fitness: runExperiment's default of 1 keeps
     * lander's per-generation network work in front; mountain car takes
     * `e3_cli run`'s default of 3, so rollout dominates.
     */
    size_t episodes;
    /**
     * Inputs (seeds) per timed run. Lander's cost per generation varies
     * with the networks a seed grows, so it averages over more inputs;
     * mountain car's barely does, so it repeats fewer inputs more often,
     * which its 4-worker rollout needs to find an undisturbed repetition.
     */
    size_t inputs;
};

/**
 * evolve.lander stays runnable (`--workload evolve.lander`) but is not
 * among BENCHMARK.json's workloads: its pointer-chasing generation
 * cost moved by up to 30% between 25 s runs with the load other
 * tenants put on a shared host, in CPU time as much as in wall time.
 */
const EvolveWorkload kWorkloads[] = {
    {"evolve.lander", "lunar_lander", "cpu", false, false, false, 150, 20, 1,
     12},
    {"evolve.mcar.inax", "mountain_car", "inax", true, true, true, 150, 20, 3,
     4},
};

/** Seed of the recorded reference run (the golden check). */
constexpr uint64_t kGoldenSeed = 5;

/** The fewest repetitions of each input in a timed run. */
constexpr size_t kMinRepeats = 2;

/** Repetitions of the traced comparison (fixed, so counts repeat). */
constexpr size_t kTracedReps = 6;

/** Set-ups behind the setup_s median. */
constexpr size_t kSetupReps = 101;

/** One in this many inference calls is timed by the traced driver. */
constexpr uint64_t kInferSampleStride = 8;

constexpr int kCheckpointEvery = 10;
constexpr int kCheckpointKeep = 3;

size_t
threadsFor(const EvolveWorkload &w)
{
    if (!w.allThreads)
        return 1;
    const size_t hw = std::max(1u, std::thread::hardware_concurrency());
    return std::min<size_t>(4, hw);
}

/** What must match between two runs of one seed. */
struct RunDigest
{
    int generations = 0;
    uint64_t traceHash = 0;
    RngAudit audit;
    double modeledTotal = 0.0;

    bool operator==(const RunDigest &o) const
    {
        return generations == o.generations && traceHash == o.traceHash &&
               audit == o.audit &&
               std::memcmp(&modeledTotal, &o.modeledTotal,
                           sizeof modeledTotal) == 0;
    }

    std::string text() const
    {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%d %016" PRIx64 " %" PRIu64 " %016" PRIx64 " %a",
                      generations, traceHash, audit.draws, audit.hash,
                      modeledTotal);
        return buf;
    }
};

/** FNV-1a fold of a 64-bit word. */
uint64_t
fnvMix(uint64_t hash, uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (word >> (8 * i)) & 0xffu;
        hash *= 1099511628211ULL;
    }
    return hash;
}

uint64_t
bitsOf(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

RunDigest
digestOf(const std::vector<GenerationPoint> &trace, const RngAudit &audit,
         double modeledTotal)
{
    RunDigest d;
    d.generations = static_cast<int>(trace.size());
    uint64_t h = 14695981039346656037ULL;
    for (const GenerationPoint &p : trace) {
        h = fnvMix(h, static_cast<uint64_t>(p.generation));
        h = fnvMix(h, bitsOf(p.bestFitness));
        h = fnvMix(h, bitsOf(p.meanFitness));
        h = fnvMix(h, bitsOf(p.normalizedBest));
        h = fnvMix(h, bitsOf(p.cumulativeSeconds));
        h = fnvMix(h, bitsOf(p.meanNodes));
        h = fnvMix(h, bitsOf(p.meanConnections));
        h = fnvMix(h, bitsOf(p.meanDensity));
        h = fnvMix(h, static_cast<uint64_t>(p.numSpecies));
    }
    d.traceHash = h;
    d.audit = audit;
    d.modeledTotal = modeledTotal;
    return d;
}

ExperimentOptions
optionsFor(const EvolveWorkload &w, uint64_t seed,
           const std::string &checkpointDir)
{
    ExperimentOptions opt;
    opt.seed = seed;
    opt.populationSize = w.population;
    opt.episodesPerEval = w.episodes;
    opt.maxGenerations = w.generations;
    opt.threads = threadsFor(w);
    opt.asyncOverlap = w.asyncOverlap;
    if (w.checkpoint) {
        opt.checkpointDir = checkpointDir;
        opt.checkpointEvery = kCheckpointEvery;
        opt.checkpointKeep = kCheckpointKeep;
    }
    return opt;
}

/**
 * Host CPU seconds of this process, all threads. Evolve is timed in CPU
 * time: on a shared VM the hypervisor steals whole vCPUs for tens of
 * milliseconds, which stretches a 4-worker rollout's wall time by 2x
 * from one run to the next while its CPU time moves by a few percent.
 * For the one-thread lander the two agree whenever nothing is stolen.
 */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/**
 * CPU time at each generation's completion in the run in flight. The
 * platform calls EvalBackend::evaluateSeconds exactly once per
 * generation, so a pass-through backend that reads the clock there
 * yields per-generation cost without tracing anything in the program.
 */
std::vector<double> gGenerationMarks;

class MarkingBackend : public EvalBackend
{
  public:
    explicit MarkingBackend(std::unique_ptr<EvalBackend> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }

    double
    evaluateSeconds(const GenerationTrace &trace) override
    {
        gGenerationMarks.push_back(processCpuSeconds());
        return inner_->evaluateSeconds(trace);
    }

    void
    attributeEnergy(double evalSeconds,
                    EnergyBreakdownInput &energy) const override
    {
        inner_->attributeEnergy(evalSeconds, energy);
    }

  private:
    std::unique_ptr<EvalBackend> inner_;
};

/** Register "hostbench-<backend>" wrapping the named backend. */
std::string
markingBackendName(const std::string &inner)
{
    const std::string name = "hostbench-" + inner;
    BackendRegistry &registry = BackendRegistry::instance();
    if (!registry.known(name)) {
        registry.registerBackend(
            name, registry.displayName(inner),
            [inner](const ExperimentOptions &options, const EnvSpec &spec) {
                return std::make_unique<MarkingBackend>(
                    BackendRegistry::instance()
                        .create(inner, options, spec)
                        .value());
            });
    }
    return name;
}

void
clearDir(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

/** One untimed-or-timed call of the real entry point. */
struct RepResult
{
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    std::vector<double> generationCpuSeconds; ///< via MarkingBackend
    RunDigest digest;
    bool ok = false;
    std::string error;
};

RepResult
runEntryPoint(const EvolveWorkload &w, const std::string &backendName,
              uint64_t seed, const std::string &checkpointDir)
{
    RepResult rep;
    if (w.checkpoint)
        clearDir(checkpointDir);
    const ExperimentOptions opt = optionsFor(w, seed, checkpointDir);
    gGenerationMarks.clear();
    gGenerationMarks.reserve(static_cast<size_t>(w.generations) + 1);
    const double cpu0 = processCpuSeconds();
    const Clock::time_point start = Clock::now();
    Result<RunResult> result = runExperiment(w.env, backendName, opt);
    rep.wallSeconds = secondsBetween(start, Clock::now());
    rep.cpuSeconds = processCpuSeconds() - cpu0;
    if (!result.ok()) {
        rep.error = result.message();
        return rep;
    }
    double prev = cpu0;
    for (double mark : gGenerationMarks) {
        rep.generationCpuSeconds.push_back(mark - prev);
        prev = mark;
    }
    rep.digest = digestOf(result->trace, result->rngAudit,
                          result->totalSeconds());
    rep.ok = true;
    return rep;
}

/** Layer totals gathered by the traced driver across repetitions. */
struct LayerTotals
{
    SpanRecorder spans;
    int generations = 0;
    double inferSeconds = 0.0;
    double poolSeconds = 0.0;  ///< threads x rollout wall
    /**
     * Pool idle seconds credited while rollouts ran, and the share of
     * that which workers actually slept between rollouts: the pool
     * credits a sleep when it ends, so the gap before each rollout
     * lands in that rollout's counter delta.
     */
    double idleCredited = 0.0;
    double idleBetween = 0.0;
    uint64_t inferCalls = 0;
    uint64_t envSteps = 0;
    uint64_t steals = 0;
    uint64_t compiledConns = 0;
    uint64_t inaxCycles = 0;
    uint64_t persistBytes = 0;
    double persistSeconds = 0.0;
};

/** The canonical config string E3Platform fingerprints checkpoints by. */
std::string
canonicalConfig(const EvolveWorkload &w, uint64_t seed)
{
    std::ostringstream oss;
    oss << "env=" << w.env << ";seed=" << seed << ";pop=" << w.population
        << ";episodes=" << w.episodes << ";quant=none";
    return oss.str();
}

persist::TraceRow
toTraceRow(const GenerationPoint &p)
{
    persist::TraceRow row;
    row.generation = p.generation;
    row.bestFitness = p.bestFitness;
    row.meanFitness = p.meanFitness;
    row.normalizedBest = p.normalizedBest;
    row.cumulativeSeconds = p.cumulativeSeconds;
    row.meanNodes = p.meanNodes;
    row.meanConnections = p.meanConnections;
    row.meanDensity = p.meanDensity;
    row.numSpecies = p.numSpecies;
    return row;
}

/**
 * E3Platform::run, fresh start, no verify gate and no quantization,
 * with a span around each layer call. The order of calls and of every
 * floating-point accumulation matches the platform's, so the digest
 * must come out identical.
 */
RunDigest
tracedRun(const EvolveWorkload &w, uint64_t seed,
          const std::string &checkpointDir, LayerTotals &t)
{
    SpanRecorder &spans = t.spans;
    if (w.checkpoint)
        clearDir(checkpointDir);
    const ExperimentOptions opt = optionsFor(w, seed, checkpointDir);
    const EnvSpec &spec = envSpec(w.env);
    std::unique_ptr<EvalBackend> backend =
        BackendRegistry::instance().create(w.backend, opt, spec).value();
    NeatConfig neatCfg = NeatConfig::forTask(
        spec.numInputs, spec.numOutputs, spec.requiredFitness);
    neatCfg.populationSize = w.population;
    runtime::RuntimeConfig rt;
    rt.threads = std::max<size_t>(opt.threads, 1);
    rt.asyncOverlap = opt.asyncOverlap;
    runtime::ParallelEval runtime(rt);
    Clock::time_point lastRolloutEnd = Clock::now();
    HostTimingModel host;
    obs::MetricsRegistry metrics;
    PhaseTimer modeled;
    EnergyBreakdownInput energy;
    std::vector<GenerationPoint> points;
    std::optional<Genome> bestGenome;
    double bestFitness = 0.0;
    NetStats bestNetStats;
    uint64_t envSteps = 0;
    double checkpointSeconds = 0.0;
    uint64_t checkpointBytes = 0;
    const uint64_t configHash =
        persist::fingerprint(canonicalConfig(w, seed));

    Population pop(neatCfg, seed);

    auto closeGeneration = [&](int gen, const GenerationStats &stats) {
        metrics.setGauge("fitness.best", stats.bestFitness);
        metrics.setGauge("fitness.mean", stats.meanFitness);
        metrics.setGauge("species.count",
                         static_cast<double>(stats.numSpecies));
        metrics.setGauge("net.mean_nodes", stats.nodeCounts.mean());
        metrics.setGauge("net.mean_connections", stats.connCounts.mean());
        metrics.setCounter("modeled.createnet_seconds",
                           modeled.seconds(e3_phase::createNet));
        metrics.setCounter("modeled.env_seconds",
                           modeled.seconds(e3_phase::env));
        metrics.setCounter("modeled.evaluate_seconds",
                           modeled.seconds(e3_phase::evaluate));
        metrics.setCounter("modeled.evolve_seconds",
                           modeled.seconds(e3_phase::evolve));
        metrics.setCounter("env.steps", static_cast<double>(envSteps));
        if (w.checkpoint) {
            metrics.setCounter("checkpoint.write_seconds",
                               checkpointSeconds);
            metrics.setCounter("checkpoint.bytes",
                               static_cast<double>(checkpointBytes));
        }
        metrics.importCounters("", runtime.counters());
        metrics.snapshotGeneration(gen);
    };

    for (int gen = 0; gen < w.generations; ++gen) {
        ScopedSpan genSpan(spans, "generation");
        ++t.generations;
        const size_t n = pop.genomes().size();
        GenerationTrace trace;
        std::vector<int> keys;
        std::vector<NetworkDef> defs;
        keys.reserve(n);
        defs.reserve(n);
        {
            ScopedSpan createnet(spans, "createnet");
            for (const auto &[key, genome] : pop.genomes()) {
                keys.push_back(key);
                NetworkDef def;
                {
                    ScopedSpan s(spans, "nn.decode");
                    def = genome.toNetworkDef(neatCfg);
                }
                {
                    ScopedSpan s(spans, "nn.netstats");
                    trace.individuals.push_back(computeNetStats(def));
                }
                defs.push_back(std::move(def));
            }
        }
        std::unique_ptr<BatchNetwork> batch;
        {
            ScopedSpan s(spans, "nn.compile");
            const BatchEngine engine = backend->batchedFunctionalInference()
                                           ? BatchEngine::Auto
                                           : BatchEngine::PerGenome;
            batch = compilePopulation(defs, NetworkCompileOptions{}, engine)
                        .value();
        }
        for (const NetworkDef &def : defs)
            t.compiledConns += def.conns.size();
        for (auto &def : defs)
            trace.defs.push_back(std::move(def));
        trace.numInputs = spec.numInputs;
        trace.numOutputs = spec.numOutputs;

        runtime::EvalPlan plan;
        plan.spec = &spec;
        plan.lanes = n;
        for (size_t e = 0; e < w.episodes; ++e) {
            plan.episodeSeeds.push_back(
                seed ^ (0x9E3779B97F4A7C15ULL *
                        (static_cast<uint64_t>(gen) * 31 + e + 1)));
        }
        // Inference time per lane: a lane runs on one worker at a
        // time, so each slot has one writer; slots are cache-line
        // sized so workers do not contend on neighbours. Every
        // kInferSampleStride-th call is timed and scaled up: two clock
        // reads cost about as much as a tiny net's whole inference.
        struct alignas(64) LaneInfer
        {
            double sampledSeconds = 0.0;
            uint64_t calls = 0;
        };
        std::vector<LaneInfer> laneInfer(n);
        plan.act = [&](size_t i, const Observation &obs) {
            LaneInfer &lane = laneInfer[i];
            const bool timed = lane.calls++ % kInferSampleStride == 0;
            const Clock::time_point t0 = timed ? Clock::now()
                                               : Clock::time_point{};
            std::vector<double> out(batch->numOutputs());
            batch->activateLane(i, obs.data(), out.data());
            Action action = decodeAction(spec, out);
            if (timed)
                lane.sampledSeconds += secondsBetween(t0, Clock::now());
            return action;
        };
        std::map<int, SpeciesEvalSummary> summaries;
        std::map<int, size_t> laneOf;
        if (w.asyncOverlap) {
            for (size_t i = 0; i < n; ++i)
                laneOf.emplace(keys[i], i);
            for (const auto &[sid, sp] : pop.speciesSet().species()) {
                runtime::EvalPlan::Group group;
                group.id = sid;
                group.lanes.reserve(sp.members.size());
                for (int key : sp.members)
                    group.lanes.push_back(laneOf.at(key));
                plan.groups.push_back(std::move(group));
                summaries.emplace(sid, SpeciesEvalSummary{});
            }
            plan.onGroupDone = [&](const runtime::EvalPlan::Group &group,
                                   const std::vector<double> &laneFitness) {
                const auto &members =
                    pop.speciesSet().species().at(group.id).members;
                summaries.at(group.id) = Reproduction::summarizeSpecies(
                    members,
                    [&](int key) { return laneFitness[laneOf.at(key)]; });
            };
        }

        const Counters before = runtime.counters();
        runtime::EvalOutcome outcome;
        const Clock::time_point rolloutStart = Clock::now();
        {
            ScopedSpan s(spans, "runtime.rollout");
            outcome = runtime.evaluate(plan);
        }
        const Clock::time_point rolloutEnd = Clock::now();
        const Counters after = runtime.counters();
        const double workers = static_cast<double>(runtime.threads());
        t.poolSeconds += workers * secondsBetween(rolloutStart, rolloutEnd);
        if (runtime.threads() > 1) {
            t.idleCredited += after.get("runtime.idle_seconds") -
                              before.get("runtime.idle_seconds");
            t.idleBetween +=
                workers * secondsBetween(lastRolloutEnd, rolloutStart);
        }
        lastRolloutEnd = rolloutEnd;
        t.steals += static_cast<uint64_t>(
            after.get("runtime.tasks_stolen") -
            before.get("runtime.tasks_stolen"));
        for (const LaneInfer &lane : laneInfer) {
            const uint64_t sampled =
                (lane.calls + kInferSampleStride - 1) / kInferSampleStride;
            if (sampled)
                t.inferSeconds += lane.sampledSeconds *
                                  static_cast<double>(lane.calls) /
                                  static_cast<double>(sampled);
            t.inferCalls += lane.calls;
        }

        trace.episodes = std::move(outcome.episodeLengths);
        for (const auto &round : trace.episodes) {
            for (int steps : round) {
                envSteps += static_cast<uint64_t>(steps);
                t.envSteps += static_cast<uint64_t>(steps);
            }
        }
        for (size_t i = 0; i < n; ++i)
            pop.genomes().at(keys[i]).fitness = outcome.fitness[i];
        trace.validate();

        modeled.add(e3_phase::createNet, host.createNetSeconds(trace));
        modeled.add(e3_phase::env, host.envSeconds(trace));
        double evalSeconds = 0.0;
        {
            ScopedSpan s(spans, "inax.replay");
            evalSeconds = backend->evaluateSeconds(trace);
        }
        modeled.add(e3_phase::evaluate, evalSeconds);
        backend->attributeEnergy(evalSeconds, energy);

        GenerationStats stats;
        {
            ScopedSpan s(spans, "neat.stats");
            stats = pop.stats();
        }
        GenerationPoint point;
        point.generation = gen;
        point.bestFitness = stats.bestFitness;
        point.meanFitness = stats.meanFitness;
        point.normalizedBest = spec.normalizeFitness(stats.bestFitness);
        point.cumulativeSeconds = modeled.totalSeconds();
        point.meanNodes = stats.nodeCounts.mean();
        point.meanConnections = stats.connCounts.mean();
        point.meanDensity = stats.densities.mean();
        point.numSpecies = stats.numSpecies;
        points.push_back(point);

        if (pop.best().fitness >= bestFitness ||
            (points.size() == 1 && !bestGenome)) {
            bestFitness = pop.best().fitness;
            NetworkDef def;
            {
                ScopedSpan s(spans, "nn.decode");
                def = pop.best().toNetworkDef(neatCfg);
            }
            {
                ScopedSpan s(spans, "nn.netstats");
                bestNetStats = computeNetStats(def);
            }
            bestGenome = pop.best();
        }

        if (pop.solved()) {
            closeGeneration(gen, stats);
            break;
        }

        modeled.add(e3_phase::evolve,
                    host.evolveSeconds(neatCfg.populationSize));
        {
            ScopedSpan s(spans, "neat.advance");
            pop.advance(summaries.empty() ? nullptr : &summaries);
        }
        if (w.checkpoint && (gen + 1) % kCheckpointEvery == 0) {
            ScopedSpan s(spans, "persist.write");
            persist::Checkpoint ck;
            ck.configHash = configHash;
            ck.generation = gen + 1;
            ck.envSteps = envSteps;
            ck.bestFitness = bestFitness;
            ck.champion = bestGenome;
            ck.population = pop.saveState();
            for (const std::string &phase : modeled.phases())
                ck.phaseSeconds.emplace_back(phase, modeled.seconds(phase));
            ck.trace.reserve(points.size());
            for (const GenerationPoint &p : points)
                ck.trace.push_back(toTraceRow(p));
            persist::WriteStats ws;
            if (persist::writeCheckpoint(checkpointDir, ck,
                                         kCheckpointKeep, &ws)
                    .ok()) {
                checkpointSeconds += ws.seconds;
                checkpointBytes += ws.bytes;
                t.persistSeconds += ws.seconds;
                t.persistBytes += ws.bytes;
            }
        }
        closeGeneration(gen, stats);
    }

    if (const auto *inax = dynamic_cast<const InaxBackend *>(backend.get()))
        t.inaxCycles += inax->report().totalCycles();
    return digestOf(points, runtime.auditDeterminism(),
                    modeled.totalSeconds());
}

/** Golden line for @p workload from the recorded file ("" if absent). */
std::string
goldenFor(const std::string &path, const std::string &workload)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name;
        uint64_t seed = 0;
        fields >> name >> seed;
        if (name == workload && seed == kGoldenSeed) {
            std::string rest;
            std::getline(fields, rest);
            const size_t first = rest.find_first_not_of(' ');
            return first == std::string::npos ? "" : rest.substr(first);
        }
    }
    return "";
}

/**
 * Set-up of one run: backend and platform construction plus the
 * generation-0 population, i.e. everything before the first evaluate.
 * Reported as the median of kSetupReps set-ups.
 */
double
setupSeconds(const EvolveWorkload &w, const std::string &checkpointDir)
{
    const ExperimentOptions opt = optionsFor(w, kGoldenSeed, checkpointDir);
    const EnvSpec &spec = envSpec(w.env);
    PlatformConfig cfg;
    cfg.envName = w.env;
    cfg.seed = opt.seed;
    cfg.populationSize = opt.populationSize;
    cfg.episodesPerEval = opt.episodesPerEval;
    cfg.maxGenerations = opt.maxGenerations;
    cfg.threads = opt.threads;
    cfg.asyncOverlap = opt.asyncOverlap;
    cfg.checkpointDir = opt.checkpointDir;
    cfg.checkpointEvery = opt.checkpointEvery;
    cfg.checkpointKeep = opt.checkpointKeep;
    std::vector<double> samples;
    for (size_t i = 0; i < kSetupReps; ++i) {
        const Clock::time_point start = Clock::now();
        E3Platform platform(
            cfg,
            BackendRegistry::instance().create(w.backend, opt, spec).value());
        const Population pop(platform.neatConfig(), opt.seed + i);
        samples.push_back(secondsBetween(start, Clock::now()));
    }
    return median(samples);
}

} // namespace

bool
runEvolve(const Options &options, Report &report)
{
    const EvolveWorkload *found = nullptr;
    for (const EvolveWorkload &w : kWorkloads) {
        if (options.workload == w.name)
            found = &w;
    }
    if (!found)
        return false;
    const EvolveWorkload &w = *found;
    const std::string ckDir = options.scratchDir + "/checkpoints";

    // Golden check: the reference seed must reproduce the recorded
    // trace, RngAudit digest and modeled total. It doubles as warm-up.
    const RepResult golden =
        runEntryPoint(w, w.backend, kGoldenSeed, ckDir);
    if (!golden.ok) {
        report.fail("golden run failed: " + golden.error);
        return true;
    }
    if (options.writeGolden) {
        std::printf("%s %" PRIu64 " %s\n", w.name, kGoldenSeed,
                    golden.digest.text().c_str());
        return true;
    }
    const std::string expected = goldenFor(options.goldenPath, w.name);
    if (expected != golden.digest.text()) {
        report.fail("golden mismatch for " + std::string(w.name) +
                    ": recorded '" + expected + "', got '" +
                    golden.digest.text() + "'");
    }

    if (options.trace) {
        addPerLayerDefaults(report);
        const std::string marking = markingBackendName(w.backend);
        std::vector<uint64_t> seeds;
        std::vector<RunDigest> untraced;
        std::vector<double> genMs;
        double untracedSeconds = 0.0;
        for (size_t i = 0; i < kTracedReps; ++i) {
            seeds.push_back(deriveSeed(options.seed, i));
            const RepResult rep = runEntryPoint(w, marking, seeds[i], ckDir);
            if (!rep.ok) {
                report.fail("run failed: " + rep.error);
                return true;
            }
            for (double seconds : rep.generationCpuSeconds)
                genMs.push_back(seconds * 1e3);
            untraced.push_back(rep.digest);
            untracedSeconds += rep.wallSeconds;
            report.attempted += static_cast<uint64_t>(rep.digest.generations);
        }
        LayerTotals t;
        obs::traceStart(obs::TraceDetail::Phase);
        const Clock::time_point start = Clock::now();
        for (size_t i = 0; i < kTracedReps; ++i) {
            const RunDigest traced = tracedRun(w, seeds[i], ckDir, t);
            if (!(traced == untraced[i])) {
                report.fail("traced driver diverged from runExperiment "
                            "for seed " +
                            std::to_string(seeds[i]) + ": " +
                            traced.text() + " vs " + untraced[i].text());
                report.failed +=
                    static_cast<uint64_t>(untraced[i].generations);
            }
        }
        const double tracedSeconds = secondsBetween(start, Clock::now());
        obs::traceStopToString(); // the document itself is not needed
        clearDir(ckDir);

        const double gens = std::max(1, t.generations);
        const double genSeconds = t.spans.totalSeconds("generation");
        auto perGenMs = [&](double seconds) { return seconds * 1e3 / gens; };
        const double decode = t.spans.totalSeconds("nn.decode");
        const double netstats = t.spans.totalSeconds("nn.netstats");
        const double compile = t.spans.totalSeconds("nn.compile");
        const double stats = t.spans.totalSeconds("neat.stats");
        const double advance = t.spans.totalSeconds("neat.advance");
        const double rollout = t.spans.totalSeconds("runtime.rollout");
        report.set("e3.generation_ms", perGenMs(genSeconds), "ms");
        report.set("nn.decode_ms", perGenMs(decode), "ms");
        report.set("nn.netstats_ms", perGenMs(netstats), "ms");
        report.set("nn.compile_ms", perGenMs(compile), "ms");
        report.set("nn.compiled_conns",
                   static_cast<double>(t.compiledConns), "count");
        report.set("neat.stats_ms", perGenMs(stats), "ms");
        report.set("neat.advance_ms", perGenMs(advance), "ms");
        report.set("runtime.rollout_ms", perGenMs(rollout), "ms");
        report.set("nn.infer_ms", perGenMs(t.inferSeconds), "ms");
        report.set("nn.infer_calls", static_cast<double>(t.inferCalls),
                   "count");
        const double idle = std::max(0.0, t.idleCredited - t.idleBetween);
        const double busy = t.poolSeconds - idle;
        report.set("env.step_ms",
                   perGenMs(std::max(0.0, busy - t.inferSeconds)), "ms");
        report.set("env.steps", static_cast<double>(t.envSteps), "count");
        report.set("runtime.idle_share", idle / t.poolSeconds, "ratio");
        report.set("runtime.steals", static_cast<double>(t.steals), "count");
        report.set("inax.replay_ms",
                   perGenMs(t.spans.totalSeconds("inax.replay")), "ms");
        report.set("inax.cycles", static_cast<double>(t.inaxCycles),
                   "count");
        report.set("persist.write_ms", perGenMs(t.persistSeconds), "ms");
        report.set("persist.bytes", static_cast<double>(t.persistBytes),
                   "count");
        report.set("e3.layer_share",
                   (decode + netstats + compile + stats + advance) /
                       genSeconds,
                   "ratio");
        report.set("runtime.rollout_share", rollout / genSeconds, "ratio");
        report.set("e3.glue_share",
                   t.spans.totalSelfSeconds("generation") / genSeconds,
                   "ratio");
        report.set("lat_tail_ms",
                   percentileBp(genMs, tailPercentileBp(genMs.size())), "ms");
        report.set("obs.overhead_pct",
                   (tracedSeconds / untracedSeconds - 1.0) * 100.0, "%");
        return true;
    }

    // The timed loop cycles through w.inputs seeds derived from --seed
    // and keeps each input's cheapest repetition (in CPU time): the
    // inputs average out how much work a seed makes, and the minimum
    // drops slowdowns other tenants of a shared host inflict on one.
    const std::string marking = markingBackendName(w.backend);
    const double setup = setupSeconds(w, ckDir);
    std::vector<uint64_t> seeds;
    for (size_t k = 0; k < w.inputs; ++k)
        seeds.push_back(deriveSeed(options.seed, k));
    std::vector<RepResult> best(w.inputs);
    std::vector<RunDigest> first(w.inputs);
    size_t reps = 0;
    const Clock::time_point start = Clock::now();
    while (reps < kMinRepeats * w.inputs ||
           secondsBetween(start, Clock::now()) < options.seconds) {
        const size_t k = reps % w.inputs;
        const RepResult rep = runEntryPoint(w, marking, seeds[k], ckDir);
        if (!rep.ok) {
            report.fail("run failed: " + rep.error);
            return true;
        }
        report.attempted += static_cast<uint64_t>(rep.digest.generations);
        if (rep.generationCpuSeconds.size() !=
            static_cast<size_t>(rep.digest.generations))
            report.fail("backend shim missed a generation");
        if (reps < w.inputs) {
            first[k] = rep.digest;
            best[k] = rep;
        } else if (!(rep.digest == first[k])) {
            report.fail("repetition of seed " + std::to_string(seeds[k]) +
                        " diverged: " + rep.digest.text() + " vs " +
                        first[k].text());
            report.failed += static_cast<uint64_t>(rep.digest.generations);
        } else if (rep.cpuSeconds < best[k].cpuSeconds) {
            best[k] = rep;
        }
        ++reps;
    }

    // The timing shim must not change what runs: the plain backend
    // reproduces the first input bit for bit.
    const RepResult plain = runEntryPoint(w, w.backend, seeds[0], ckDir);
    if (!plain.ok || !(plain.digest == first[0])) {
        report.fail("seed " + std::to_string(seeds[0]) +
                    " diverged through the plain backend");
        report.failed += static_cast<uint64_t>(first[0].generations);
    }
    clearDir(ckDir);

    double cpu = 0.0;
    double wall = 0.0;
    uint64_t generations = 0;
    std::vector<double> ms;
    for (const RepResult &rep : best) {
        cpu += rep.cpuSeconds;
        wall += rep.wallSeconds;
        generations += static_cast<uint64_t>(rep.digest.generations);
        for (double seconds : rep.generationCpuSeconds)
            ms.push_back(seconds * 1e3);
    }
    const int tail = tailPercentileBp(ms.size());
    std::fprintf(stderr,
                 "%s: %zu runs of %zu inputs; the cheapest repetitions hold "
                 "%" PRIu64 " generations, %.4f gens per wall s, p%g %.4f "
                 "CPU ms\n",
                 w.name, reps, w.inputs, generations,
                 static_cast<double>(generations) / wall, tail / 100.0,
                 percentileBp(ms, tail));
    report.set("throughput_per_s", static_cast<double>(generations) / cpu,
               "1/s");
    report.set("lat_p50_ms", percentileBp(ms, 5000), "ms");
    report.set("setup_s", setup, "s");
    report.set("peak_rss_mb", peakRssMb(), "MB");
    return true;
}

} // namespace e3::hostbench
