/**
 * @file
 * Parallel population evaluation with a bit-identical serial fallback.
 *
 * One evaluation "lane" per individual: the lane rolls its episodes to
 * completion on whichever worker picks it up. Determinism comes from
 * stream isolation, not scheduling: every lane's RNG stream is derived
 * up front by the VectorEnv constructor (a pure function of the
 * episode seed and the lane index — and the lane order is the genome
 * key order, so effectively of (seed, generation, genome key)), lanes
 * never share mutable state, and results land in per-lane slots. Any
 * worker count, including the serial threads<=1 path, produces the
 * same bits.
 */

#ifndef E3_RUNTIME_PARALLEL_EVAL_HH
#define E3_RUNTIME_PARALLEL_EVAL_HH

#include <functional>
#include <memory>
#include <vector>

#include "env/vector_env.hh"
#include "runtime/thread_pool.hh"

namespace e3::runtime {

/** Execution knobs of the evaluation runtime. */
struct RuntimeConfig
{
    /** Worker threads; <= 1 keeps everything on the calling thread. */
    size_t threads = 1;

    /**
     * Ignored: group callbacks always run on the calling thread after
     * fan-in. Kept only so hostbench's traced evolve driver compiles;
     * goes once that driver may change.
     */
    bool asyncOverlap = false;
};

/** One population evaluation request. */
struct EvalPlan
{
    const EnvSpec *spec = nullptr; ///< environment for every lane
    size_t lanes = 0;              ///< population size
    /** One master seed per episode round (VectorEnv seeding). */
    std::vector<uint64_t> episodeSeeds;

    /**
     * Policy core of lane i: read the lane's observation
     * (spec->numInputs doubles) and write its env action
     * (spec->actionSize() doubles) into @p action, a buffer the lane
     * owns for the whole evaluation. Called once per env step,
     * concurrently for distinct lanes; must not allocate or share
     * mutable state across lanes.
     */
    using Policy =
        std::function<void(size_t lane, const double *obs, double *action)>;
    Policy policy;

    /**
     * Vector-returning policy hook, for callers that do not need the
     * allocation-free core. Used only when `policy` is unset:
     * evaluate() adapts it onto the core at entry, so both run the
     * same rollout loop.
     */
    std::function<Action(size_t lane, const Observation &obs)> act;

    /**
     * Optional: clear lane i's policy state (a recurrent network's
     * previous tick) at the start of every episode round, so no round
     * depends on the one before it. Called concurrently for distinct
     * lanes.
     */
    std::function<void(size_t lane)> resetLane;

    /** A set of lanes handed to onGroupDone after fan-in. */
    struct Group
    {
        int id = 0;                ///< caller's key (e.g. species id)
        std::vector<size_t> lanes; ///< member lane indices
    };
    std::vector<Group> groups;

    /**
     * Runs once per group on the calling thread after fan-in, in group
     * order, with every lane's final mean fitness. Skipped when a lane
     * threw.
     */
    std::function<void(const Group &group,
                       const std::vector<double> &laneFitness)>
        onGroupDone;
};

/** Per-lane results of one evaluation. */
struct EvalOutcome
{
    /** Mean episode fitness per lane (over all episode rounds). */
    std::vector<double> fitness;
    /** episodeLengths[e][i] = env steps of lane i in episode round e. */
    std::vector<std::vector<int>> episodeLengths;
    /**
     * Determinism-sentinel digest: every lane's RNG stream digest
     * folded in (episode round, lane) order. A pure function of
     * (seed, generation, genome key) when evaluation is correct;
     * any scheduling-dependent draw diverges it immediately.
     */
    RngAudit rngAudit;
};

/** Evaluation runtime: owns the worker pool and utilization counters. */
class ParallelEval
{
  public:
    explicit ParallelEval(const RuntimeConfig &cfg);
    ~ParallelEval();

    /** Evaluate every lane; blocks until fan-in. */
    EvalOutcome evaluate(const EvalPlan &plan);

    size_t threads() const { return cfg_.threads; }

    /** Pool utilization counters accumulated so far (empty if serial). */
    Counters counters() const;

    /**
     * The determinism sentinel: RNG stream digests of every
     * evaluate() call so far, folded in submission order. Serial and
     * 2/4/8-thread runs of the same experiment must return
     * identical digests — compare them across configurations (the
     * determinism-sentinel test and CI job do) to catch
     * scheduling-dependent draws at the source.
     */
    RngAudit auditDeterminism() const { return audit_; }

  private:
    void runLane(const EvalPlan &plan, const EvalPlan::Policy &policy,
                 std::vector<std::unique_ptr<VectorEnv>> &venvs,
                 double *action, EvalOutcome &out, size_t lane) const;

    RuntimeConfig cfg_;
    std::unique_ptr<ThreadPool> pool_; ///< null on the serial path
    RngAudit audit_; ///< fold of every evaluation's rngAudit
};

} // namespace e3::runtime

#endif // E3_RUNTIME_PARALLEL_EVAL_HH
