#include "e3/platform.hh"

#include <algorithm>
#include <optional>
#include <sstream>

#include "common/hot.hh"
#include "common/logging.hh"
#include "e3/inax_backend.hh"
#include "nn/batch_eval.hh"
#include "obs/trace.hh"
#include "persist/checkpoint.hh"
#include "runtime/lane_buffer.hh"
#include "verify/verify.hh"

namespace e3 {

namespace {

runtime::RuntimeConfig
runtimeConfigOf(const PlatformConfig &cfg)
{
    runtime::RuntimeConfig rt;
    rt.threads = std::max<size_t>(cfg.threads, 1);
    rt.asyncOverlap = cfg.asyncOverlap;
    return rt;
}

/**
 * Canonical string hashed into the checkpoint fingerprint. Only the
 * knobs that shape functional evolution belong here: threads, async
 * overlap, generation caps and time budgets are deliberately excluded
 * so a run may be resumed with more generations or a different worker
 * count and still replay bit-identically.
 */
std::string
canonicalConfig(const PlatformConfig &cfg)
{
    std::ostringstream oss;
    oss << "env=" << cfg.envName << ";seed=" << cfg.seed
        << ";pop=" << cfg.populationSize
        << ";episodes=" << cfg.episodesPerEval << ";quant=";
    if (cfg.quantization)
        oss << cfg.quantization->totalBits << '.'
            << cfg.quantization->fracBits;
    else
        oss << "none";
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

/** First error diagnostic of a report, formatted for a warn() line. */
std::string
firstErrorLine(const verify::Report &report)
{
    for (const verify::Diagnostic &d : report.diagnostics) {
        if (d.severity != verify::Severity::Error)
            continue;
        return d.ruleId + " [" + d.locus + "] " + d.message;
    }
    return {};
}

GenerationPoint
fromTraceRow(const persist::TraceRow &row)
{
    GenerationPoint p;
    p.generation = row.generation;
    p.bestFitness = row.bestFitness;
    p.meanFitness = row.meanFitness;
    p.normalizedBest = row.normalizedBest;
    p.cumulativeSeconds = row.cumulativeSeconds;
    p.meanNodes = row.meanNodes;
    p.meanConnections = row.meanConnections;
    p.meanDensity = row.meanDensity;
    p.numSpecies = row.numSpecies;
    return p;
}

/** One policy step of a lane, through its output slot @p out. */
E3_HOT void
policyStep(BatchNetwork &batch, const EnvSpec &spec, size_t lane,
           const double *obs, double *out, double *action)
{
    batch.activateLane(lane, obs, out);
    decodeActionInto(spec, out, action);
}

} // namespace

runtime::EvalPlan::Policy
rolloutPolicy(BatchNetwork &batch, const EnvSpec &spec)
{
    // Distinct lanes touch disjoint value regions and output slots, so
    // out-of-lockstep parallel rollout stays safe.
    auto outputs =
        std::make_shared<runtime::LaneBuffer>(batch.lanes(),
                                              batch.numOutputs());
    return [&batch, &spec, outputs](size_t lane, const double *obs,
                                    double *action) {
        policyStep(batch, spec, lane, obs, outputs->lane(lane), action);
    };
}

E3Platform::E3Platform(const PlatformConfig &cfg,
                       std::unique_ptr<EvalBackend> backend)
    : cfg_(cfg), spec_(envSpec(cfg.envName)),
      neatCfg_(NeatConfig::forTask(spec_.numInputs, spec_.numOutputs,
                                   spec_.requiredFitness)),
      backend_(std::move(backend)), runtime_(runtimeConfigOf(cfg))
{
    e3_assert(backend_, "platform needs a backend");
    e3_assert(cfg_.episodesPerEval >= 1, "need at least one episode");
    neatCfg_.populationSize = cfg_.populationSize;
}

void
E3Platform::evaluateFunctional(Population &pop, GenerationTrace &trace,
                               int generation,
                               std::map<int, SpeciesEvalSummary> &summaries)
{
    const size_t n = pop.genomes().size();

    // CreateNet: decode every genome once per generation, then compile
    // the whole population through the one population-compile entry
    // point (nn/batch_eval), which analyzes each def once and hands
    // back its NetStats for the trace, the stats fold and the backend
    // cost models. Plain feed-forward populations run on the SoA
    // engine under every backend — backends are timing models and do
    // not pick the host substrate. With quantized deployment enabled,
    // the loop-over-Network adapter hands back fixed-point evaluators
    // (the accelerator's datapath view).
    std::vector<int> keys;
    std::vector<NetworkDef> defs;
    keys.reserve(n);
    defs.reserve(n);
    NetworkCompileOptions compileOpts;
    compileOpts.quantization = cfg_.quantization;
    std::unique_ptr<BatchNetwork> batch;
    {
        obs::TraceSpan span("createnet");
        for (const auto &[key, genome] : pop.genomes()) {
            keys.push_back(key);
            NetworkDef def = genome.toNetworkDef(neatCfg_);
            if (cfg_.verifyGenomes) {
                // The --verify gate: an evolved def failing structural
                // verification is an evolution-loop bug. Errors only —
                // pruned hidden nodes (E3V008) are normal NEAT debris.
                verify::Report report =
                    verify::verifyNetworkDef(def, neatCfg_.feedForward);
                report.diagnostics.erase(
                    std::remove_if(report.diagnostics.begin(),
                                   report.diagnostics.end(),
                                   [](const verify::Diagnostic &d) {
                                       return d.severity !=
                                              verify::Severity::Error;
                                   }),
                    report.diagnostics.end());
                if (!report.empty()) {
                    report.setArtifact(
                        "gen " + std::to_string(generation) +
                        " genome " + std::to_string(key));
                    warn("verify: genome ", key, " at generation ",
                         generation, ": ", firstErrorLine(report));
                    verifyReport_.merge(std::move(report));
                }
            }
            defs.push_back(std::move(def));
        }
        Result<std::unique_ptr<BatchNetwork>> compiled = compilePopulation(
            defs, compileOpts, BatchEngine::Auto, &trace.individuals);
        // Evolved genomes satisfy the structural invariants by
        // construction, so a compile failure here is an evolution-loop
        // bug.
        e3_assert(compiled.ok(),
                  "population compile failed: ", compiled.message());
        batch = std::move(compiled).value();
    }

    if (cfg_.verifyGenomes) {
        // The --verify gate, batch side: when the SoA engine compiled
        // a flat plan, certify it (E3V301–E3V306) against the very
        // defs it was compiled from before any lane activates. The
        // per-genome adapter has no plan and skips this.
        if (const BatchPlan *batchPlan = batch->plan()) {
            verify::Report report =
                verify::verifyBatchPlan(*batchPlan, defs);
            if (!report.empty()) {
                report.setArtifact("gen " + std::to_string(generation) +
                                   " batch plan");
                warn("verify: batch plan at generation ", generation,
                     ": ", firstErrorLine(report));
                verifyReport_.merge(std::move(report));
            }
        }
    }

    trace.defs = std::move(defs);
    trace.numInputs = spec_.numInputs;
    trace.numOutputs = spec_.numOutputs;

    runtime::EvalPlan plan;
    plan.spec = &spec_;
    plan.lanes = n;
    plan.episodeSeeds.reserve(cfg_.episodesPerEval);
    for (size_t e = 0; e < cfg_.episodesPerEval; ++e) {
        plan.episodeSeeds.push_back(
            cfg_.seed ^
            (0x9E3779B97F4A7C15ULL *
             (static_cast<uint64_t>(generation) * 31 + e + 1)));
    }
    plan.policy = rolloutPolicy(*batch, spec_);

    // Async overlap: one lane group per species, so the evolve phase's
    // per-species summaries (fitness mean/extrema, member ranking) are
    // computed the moment that species' lanes finish — while the rest
    // of the population is still rolling out.
    summaries.clear();
    std::map<int, size_t> laneOf;
    if (cfg_.asyncOverlap) {
        for (size_t i = 0; i < n; ++i)
            laneOf.emplace(keys[i], i);
        for (const auto &[sid, sp] : pop.speciesSet().species()) {
            runtime::EvalPlan::Group group;
            group.id = sid;
            group.lanes.reserve(sp.members.size());
            for (int key : sp.members)
                group.lanes.push_back(laneOf.at(key));
            plan.groups.push_back(std::move(group));
            // Slots preallocated here; group callbacks fill them
            // concurrently without mutating the map's structure.
            summaries.emplace(sid, SpeciesEvalSummary{});
        }
        plan.onGroupDone =
            [&](const runtime::EvalPlan::Group &group,
                const std::vector<double> &laneFitness) {
                const auto &members =
                    pop.speciesSet().species().at(group.id).members;
                summaries.at(group.id) = Reproduction::summarizeSpecies(
                    members, [&](int key) {
                        return laneFitness[laneOf.at(key)];
                    });
            };
    }

    runtime::EvalOutcome outcome;
    {
        obs::TraceSpan span("evaluate");
        outcome = runtime_.evaluate(plan);
    }
    trace.episodes = std::move(outcome.episodeLengths);
    for (const auto &round : trace.episodes) {
        for (int steps : round)
            envSteps_ += static_cast<uint64_t>(steps);
    }
    for (size_t i = 0; i < n; ++i)
        pop.genomes().at(keys[i]).fitness = outcome.fitness[i];
}

RunResult
E3Platform::run()
{
    RunResult result;
    result.backendName = backend_->name();
    result.envName = cfg_.envName;

    const bool checkpointing = !cfg_.checkpointDir.empty();
    const uint64_t configHash =
        persist::fingerprint(canonicalConfig(cfg_));

    // Resume: restore the newest usable snapshot. Any failure here —
    // missing directory, corrupt files, format or config mismatch —
    // degrades to a warning and a fresh start; it never crashes.
    std::optional<Genome> bestGenome;
    std::optional<Population> restored;
    int startGen = 0;
    if (checkpointing && cfg_.resume) {
        Result<persist::Checkpoint> loaded = persist::loadLatestCheckpoint(
            cfg_.checkpointDir, configHash);
        if (!loaded.ok()) {
            warn("resume from '", cfg_.checkpointDir,
                 "' failed (", loaded.message(), "); starting fresh");
        } else {
            persist::Checkpoint &ck = *loaded;
            // The checkpoint loader already ran the interface-agnostic
            // structural pass; here the run configuration is known, so
            // every restored genome must satisfy this env's full
            // interface (I/O shape, feed-forward legality). A failure
            // degrades like any other unusable checkpoint.
            const verify::GenomeInterface iface =
                verify::interfaceFor(spec_, neatCfg_.feedForward);
            bool genomesOk = true;
            auto checkRestored = [&](const Genome &g, const char *what) {
                verify::Report report = verify::verifyGenome(g, iface);
                if (report.hasErrors()) {
                    warn("resume: ", what, " genome ", g.key(),
                         " fails verification (",
                         firstErrorLine(report), "); starting fresh");
                    genomesOk = false;
                }
            };
            for (const auto &[key, genome] : ck.population.genomes)
                checkRestored(genome, "restored");
            if (ck.champion)
                checkRestored(*ck.champion, "champion");
            if (genomesOk) {
                restored.emplace(neatCfg_, ck.population);
                startGen = ck.generation;
                envSteps_ = ck.envSteps;
                result.bestFitness = ck.bestFitness;
                bestGenome = ck.champion;
                if (bestGenome) {
                    result.bestNetStats = computeNetStats(
                        bestGenome->toNetworkDef(neatCfg_));
                }
                for (const auto &[phase, seconds] : ck.phaseSeconds)
                    result.modeled.add(phase, seconds);
                result.trace.reserve(ck.trace.size());
                for (const persist::TraceRow &row : ck.trace)
                    result.trace.push_back(fromTraceRow(row));
                result.generations =
                    static_cast<int>(result.trace.size());
                inform("resumed '", cfg_.envName, "' from '",
                       cfg_.checkpointDir, "' at generation ",
                       startGen);
            }
        }
    }

    Population pop = restored ? std::move(*restored)
                              : Population(neatCfg_, cfg_.seed);

    double checkpointSeconds = 0.0;
    uint64_t checkpointBytes = 0;

    // Cut one metrics row per generation: gauges carry the current
    // value, counters the delta since the previous row, so every
    // generation's spend is isolated (the fig9-style breakdown).
    auto closeGeneration = [&](int gen, const GenerationStats &stats) {
        metrics_.setGauge("fitness.best", stats.bestFitness);
        metrics_.setGauge("fitness.mean", stats.meanFitness);
        metrics_.setGauge("species.count",
                          static_cast<double>(stats.numSpecies));
        metrics_.setGauge("net.mean_nodes", stats.nodeCounts.mean());
        metrics_.setGauge("net.mean_connections",
                          stats.connCounts.mean());
        metrics_.setCounter(
            "modeled.createnet_seconds",
            result.modeled.seconds(e3_phase::createNet));
        metrics_.setCounter("modeled.env_seconds",
                            result.modeled.seconds(e3_phase::env));
        metrics_.setCounter(
            "modeled.evaluate_seconds",
            result.modeled.seconds(e3_phase::evaluate));
        metrics_.setCounter("modeled.evolve_seconds",
                            result.modeled.seconds(e3_phase::evolve));
        metrics_.setCounter("env.steps",
                            static_cast<double>(envSteps_));
        if (checkpointing) {
            metrics_.setCounter("checkpoint.write_seconds",
                                checkpointSeconds);
            metrics_.setCounter(
                "checkpoint.bytes",
                static_cast<double>(checkpointBytes));
        }
        // Pool counters already carry their "runtime." prefix.
        metrics_.importCounters("", runtime_.counters());
        metrics_.snapshotGeneration(gen);
        obs::traceCounter("fitness.best", stats.bestFitness);
        obs::traceCounter("species.count",
                          static_cast<double>(stats.numSpecies));
    };

    // Snapshot the complete evolve-loop state after advance(): the
    // stored generation is the next one to run, so a resumed loop picks
    // up exactly where the interrupted one would have continued.
    auto persistCheckpoint = [&](int nextGen) {
        obs::TraceSpan span("persist");
        persist::Checkpoint ck;
        ck.configHash = configHash;
        ck.generation = nextGen;
        ck.envSteps = envSteps_;
        ck.bestFitness = result.bestFitness;
        ck.champion = bestGenome;
        ck.population = pop.saveState();
        for (const std::string &phase : result.modeled.phases())
            ck.phaseSeconds.emplace_back(
                phase, result.modeled.seconds(phase));
        ck.trace.reserve(result.trace.size());
        for (const GenerationPoint &point : result.trace)
            ck.trace.push_back(toTraceRow(point));
        persist::WriteStats stats;
        Status written = persist::writeCheckpoint(
            cfg_.checkpointDir, ck, cfg_.checkpointKeep, &stats);
        if (!written.ok()) {
            warn("checkpoint write failed: ", written.message());
            return;
        }
        checkpointSeconds += stats.seconds;
        checkpointBytes += stats.bytes;
    };

    for (int gen = startGen; gen < cfg_.maxGenerations; ++gen) {
        obs::TraceSpan genSpan("generation");
        GenerationTrace trace;
        std::map<int, SpeciesEvalSummary> summaries;
        evaluateFunctional(pop, trace, gen, summaries);
        // e3-lint: discard-ok -- GenerationTrace::validate is void; it shares its name with Status-returning validates elsewhere
        trace.validate();

        // --- modeled timing ---
        result.modeled.add(e3_phase::createNet,
                           host_.createNetSeconds(trace));
        result.modeled.add(e3_phase::env, host_.envSeconds(trace));
        double evalSeconds = 0.0;
        {
            // The backend's modeled replay (INAX session / GPU / CPU
            // cost model); hw-detail traces emit the per-PU timelines
            // from inside this span.
            obs::TraceSpan span("backend_replay");
            evalSeconds = backend_->evaluateSeconds(trace);
        }
        result.modeled.add(e3_phase::evaluate, evalSeconds);
        backend_->attributeEnergy(evalSeconds, result.energyInput);

        // --- per-generation stats, from CreateNet's NetStats ---
        const GenerationStats stats = pop.stats(trace.individuals);
        GenerationPoint point;
        point.generation = gen;
        point.bestFitness = stats.bestFitness;
        point.meanFitness = stats.meanFitness;
        point.normalizedBest =
            spec_.normalizeFitness(stats.bestFitness);
        point.cumulativeSeconds = result.modeled.totalSeconds();
        point.meanNodes = stats.nodeCounts.mean();
        point.meanConnections = stats.connCounts.mean();
        point.meanDensity = stats.densities.mean();
        point.numSpecies = stats.numSpecies;
        result.trace.push_back(point);

        result.generations = gen + 1;
        if (pop.best().fitness >= result.bestFitness ||
            (result.trace.size() == 1 && !bestGenome)) {
            const Genome &best = pop.best();
            const auto lane = std::distance(pop.genomes().begin(),
                                            pop.genomes().find(best.key()));
            result.bestFitness = best.fitness;
            result.bestNetStats =
                trace.individuals[static_cast<size_t>(lane)];
            bestGenome = best;
        }

        if (pop.solved()) {
            result.solved = true;
            closeGeneration(gen, stats);
            break;
        }
        if (result.modeled.totalSeconds() >=
            cfg_.modeledSecondsBudget) {
            inform(backend_->name(), "/", cfg_.envName,
                   ": modeled-time budget exhausted at generation ",
                   gen);
            closeGeneration(gen, stats);
            break;
        }

        result.modeled.add(
            e3_phase::evolve,
            host_.evolveSeconds(neatCfg_.populationSize));
        {
            obs::TraceSpan span("evolve");
            pop.advance(summaries.empty() ? nullptr : &summaries);
        }
        if (checkpointing && cfg_.checkpointEvery > 0 &&
            (gen + 1) % cfg_.checkpointEvery == 0) {
            persistCheckpoint(gen + 1);
        }
        closeGeneration(gen, stats);
    }

    // Host-side phases always run on the CPU.
    result.energyInput.cpuSeconds +=
        result.modeled.seconds(e3_phase::createNet) +
        result.modeled.seconds(e3_phase::env) +
        result.modeled.seconds(e3_phase::evolve);

    result.runtimeCounters = runtime_.counters();
    result.rngAudit = runtime_.auditDeterminism();
    result.metrics = metrics_;
    result.verifyReport = verifyReport_;

    if (auto *inax = dynamic_cast<InaxBackend *>(backend_.get()))
        result.inaxReport = inax->report();
    return result;
}

} // namespace e3
