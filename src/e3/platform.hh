/**
 * @file
 * The E3 platform: the closed loop of the paper's Fig. 1(a)/Fig. 5.
 *
 * Per generation: CreateNet decodes the population, "evaluate" runs
 * every individual against its own environment episode(s) — functional
 * results from the real C++ simulation, time from the selected backend
 * (software / GPU / INAX model) — then "evolve" reproduces the next
 * generation on the CPU. The run stops when the required fitness is
 * achieved, the generation cap is hit, or the modeled-time budget runs
 * out (the paper's "set runtime constraint").
 */

#ifndef E3_E3_PLATFORM_HH
#define E3_E3_PLATFORM_HH

#include <memory>
#include <optional>

#include "common/timing.hh"
#include "e3/backend.hh"
#include "env/vector_env.hh"
#include "inax/inax.hh"
#include "neat/population.hh"
#include "nn/quantize.hh"
#include "obs/metrics.hh"
#include "runtime/parallel_eval.hh"
#include "verify/diagnostics.hh"

namespace e3 {

class BatchNetwork;

/**
 * The rollout policy core of a compiled population: lane i activates
 * its network into a lane-owned output slot and decodes the outputs
 * into the lane's action buffer. Allocates its output scratch once,
 * here; a step allocates nothing. @p batch and @p spec must outlive
 * the returned policy.
 */
runtime::EvalPlan::Policy rolloutPolicy(BatchNetwork &batch,
                                        const EnvSpec &spec);

/** Run configuration of one E3 learning session. */
struct PlatformConfig
{
    std::string envName = "cartpole";
    uint64_t seed = 1;
    size_t populationSize = 200;   ///< paper Sec. VI-C
    size_t episodesPerEval = 1;    ///< episodes averaged per fitness
    int maxGenerations = 300;
    double modeledSecondsBudget = 1e9; ///< stop once exceeded

    /**
     * When set, functional inference runs through the fixed-point
     * evaluator at this format — what the agent would actually compute
     * on INAX's DSP datapath — so evolution selects controllers that
     * work *after* quantization, not just in double precision.
     */
    std::optional<FixedPointFormat> quantization;

    /**
     * Evaluation worker threads; 1 keeps the whole loop on the calling
     * thread. Functional results are bit-identical for every value —
     * each lane's RNG stream is derived from (seed, generation, lane)
     * up front, independent of scheduling.
     */
    size_t threads = 1;

    /**
     * Overlap the evolve phase's per-species fitness summaries with
     * the tail of evaluation (CLAN-style async mode). Functionally
     * identical to the synchronous path; only wall-clock differs.
     */
    bool asyncOverlap = false;

    /**
     * Directory for crash-safe snapshots of the whole evolve loop;
     * empty disables checkpointing. A resumed run continues the
     * per-generation fitness trace bit-identically (same seed, any
     * thread count) — the power-cycle-tolerant deployment story.
     */
    std::string checkpointDir;

    /** Write a snapshot every N generations (requires checkpointDir). */
    int checkpointEvery = 10;

    /** Retain at most this many snapshots (oldest deleted first). */
    int checkpointKeep = 3;

    /**
     * Restore the newest usable snapshot from checkpointDir before
     * running. A missing, corrupt, or configuration-mismatched
     * checkpoint degrades to a warning and a fresh start — never a
     * crash.
     */
    bool resume = false;

    /**
     * Run the structural verifier over every decoded network before it
     * enters the evaluate phase (the `e3_cli run --verify` gate).
     * Structural errors are collected into RunResult::verifyReport —
     * an evolved genome should never produce one, so any finding is
     * evidence of an evolution-loop bug. Off by default: decoded defs
     * are verifier-clean by construction and the check costs a full
     * structural pass per genome per generation.
     */
    bool verifyGenomes = false;
};

/** One generation's summary point (the Fig. 2(d) trace). */
struct GenerationPoint
{
    int generation = 0;
    double bestFitness = 0.0;
    double meanFitness = 0.0;
    double normalizedBest = 0.0; ///< against the env's required fitness
    double cumulativeSeconds = 0.0; ///< modeled platform time so far
    double meanNodes = 0.0;
    double meanConnections = 0.0;
    double meanDensity = 0.0;
    size_t numSpecies = 0;
};

/** Result of one E3 run. */
struct RunResult
{
    std::string backendName;
    std::string envName;
    bool solved = false;
    int generations = 0;
    double bestFitness = 0.0;
    NetStats bestNetStats;       ///< structure of the final champion
    PhaseTimer modeled;          ///< evaluate / env / evolve / createnet
    std::vector<GenerationPoint> trace;
    EnergyBreakdownInput energyInput;
    InaxReport inaxReport;       ///< populated by the INAX backend
    /** Worker utilization (tasks run/stolen, idle s); empty if serial. */
    Counters runtimeCounters;

    /**
     * Determinism-sentinel digest of every RNG stream the evaluation
     * runtime consumed: (total draws, FNV-1a hash of the draw
     * sequences) folded in canonical (generation, episode round,
     * lane) order. Identical configs must produce identical digests
     * at every worker count — serial vs 2/4/8-thread vs async — which
     * is exactly what the determinism-sentinel test and CI job assert.
     */
    RngAudit rngAudit;

    /**
     * Per-generation metrics: one snapshot row per generation with
     * fitness/species gauges, modeled per-phase second deltas, env
     * step counts and pool counter deltas. Export with toCsv()/
     * toJson() (the CLI's --metrics flag) to regenerate fig9-style
     * breakdowns offline.
     */
    obs::MetricsRegistry metrics;

    /**
     * Structural errors found by the PlatformConfig::verifyGenomes
     * gate, stamped with the generation and genome they came from.
     * Empty when the gate is off or every decoded network verified
     * clean.
     */
    verify::Report verifyReport;

    /** Total modeled wall seconds. */
    double totalSeconds() const { return modeled.totalSeconds(); }
};

/** Phase names used in RunResult::modeled. */
namespace e3_phase {
inline const std::string evaluate = "evaluate";
inline const std::string evolve = "evolve";
inline const std::string env = "env";
inline const std::string createNet = "createnet";
} // namespace e3_phase

/** Closed-loop NEAT learning platform with a pluggable backend. */
class E3Platform
{
  public:
    E3Platform(const PlatformConfig &cfg,
               std::unique_ptr<EvalBackend> backend);

    /** Tweak NEAT hyperparameters before run(). */
    NeatConfig &neatConfig() { return neatCfg_; }

    /** Host-side (env/evolve/createnet) timing knobs. */
    HostTimingModel &hostTiming() { return host_; }

    /** Execute the learning loop to completion. */
    RunResult run();

  private:
    PlatformConfig cfg_;
    EnvSpec spec_;
    NeatConfig neatCfg_;
    std::unique_ptr<EvalBackend> backend_;
    HostTimingModel host_;
    runtime::ParallelEval runtime_;
    obs::MetricsRegistry metrics_;
    uint64_t envSteps_ = 0; ///< functional env steps across the run
    verify::Report verifyReport_; ///< verifyGenomes-gate findings

    /**
     * Functionally evaluate the current population through the
     * parallel runtime: one episode round per episodesPerEval, fitness
     * = mean episode reward. Fills the trace's definitions, their
     * NetStats (genomes() order) and episode lengths. In
     * async-overlap mode, @p summaries receives every species'
     * evaluation summary (computed while the evaluate tail drained);
     * it is left empty otherwise.
     */
    void evaluateFunctional(Population &pop, GenerationTrace &trace,
                            int generation,
                            std::map<int, SpeciesEvalSummary> &summaries);
};

} // namespace e3

#endif // E3_E3_PLATFORM_HH
