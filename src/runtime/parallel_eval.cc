#include "runtime/parallel_eval.hh"

#include <algorithm>

#include "common/hot.hh"
#include "common/logging.hh"
#include "obs/trace.hh"
#include "runtime/lane_buffer.hh"

namespace e3::runtime {

ParallelEval::ParallelEval(const RuntimeConfig &cfg) : cfg_(cfg)
{
    if (cfg_.threads > 1)
        pool_ = std::make_unique<ThreadPool>(cfg_.threads);
}

ParallelEval::~ParallelEval() = default;

E3_HOT void
ParallelEval::runLane(const EvalPlan &plan, const EvalPlan::Policy &policy,
                      std::vector<std::unique_ptr<VectorEnv>> &venvs,
                      double *action, EvalOutcome &out, size_t lane) const
{
    // Episode rounds run in order within the lane, exactly like the
    // lockstep path: reset consumes the lane's private stream, then
    // the policy drives the episode to termination or the step cap.
    // Observation and action live in lane-owned buffers, so a step
    // touches no allocator.
    obs::TraceSpan span("lane", obs::TraceDetail::Task);
    double sum = 0.0;
    for (size_t e = 0; e < venvs.size(); ++e) {
        VectorEnv &venv = *venvs[e];
        venv.resetLane(lane);
        if (plan.resetLane)
            plan.resetLane(lane);
        const double *observation = venv.observation(lane).data();
        bool finished = venv.done(lane);
        while (!finished) {
            policy(lane, observation, action);
            finished = venv.stepLane(lane, action);
        }
        out.episodeLengths[e][lane] = venv.steps(lane);
        sum += venv.fitness(lane);
    }
    out.fitness[lane] =
        sum / static_cast<double>(venvs.size());
}

EvalOutcome
ParallelEval::evaluate(const EvalPlan &plan)
{
    e3_assert(plan.spec, "evaluation plan needs an environment spec");
    e3_assert(plan.policy || plan.act, "evaluation plan needs a policy");
    e3_assert(!plan.episodeSeeds.empty(),
              "evaluation plan needs at least one episode round");

    EvalOutcome out;
    if (plan.lanes == 0)
        return out;
    out.fitness.assign(plan.lanes, 0.0);
    out.episodeLengths.assign(plan.episodeSeeds.size(),
                              std::vector<int>(plan.lanes, 0));

    // VectorEnv construction derives every lane's RNG stream up front
    // on this thread — the same split sequence the lockstep path uses,
    // so streams are a pure function of (episode seed, lane index).
    std::vector<std::unique_ptr<VectorEnv>> venvs;
    venvs.reserve(plan.episodeSeeds.size());
    for (uint64_t seed : plan.episodeSeeds)
        venvs.push_back(
            std::make_unique<VectorEnv>(*plan.spec, plan.lanes, seed));

    // One action buffer per lane, written by the policy core and read
    // by the env's stepInto on every step of every episode round.
    const size_t actionSize = plan.spec->actionSize();
    LaneBuffer actions(plan.lanes, actionSize);

    // The vector `act` hook rides the same loop through an adapter
    // with per-lane observation scratch.
    EvalPlan::Policy policy = plan.policy;
    std::vector<Observation> actObs;
    if (!policy) {
        actObs.assign(plan.lanes, Observation(plan.spec->numInputs));
        policy = [&](size_t lane, const double *obs, double *action) {
            Observation &o = actObs[lane];
            std::copy(obs, obs + o.size(), o.begin());
            const Action a = plan.act(lane, o);
            e3_assert(a.size() >= actionSize, "policy of lane ", lane,
                      " returned ", a.size(), " action element(s), need ",
                      actionSize);
            std::copy(a.begin(), a.begin() + actionSize, action);
        };
    }

    auto runLaneAt = [&](size_t i) {
        runLane(plan, policy, venvs, actions.lane(i), out, i);
    };
    if (pool_) {
        pool_->parallelFor(plan.lanes, runLaneAt);
    } else {
        for (size_t i = 0; i < plan.lanes; ++i)
            runLaneAt(i);
    }

    // Fan-in, on the calling thread: every lane's fitness is final.
    if (plan.onGroupDone) {
        for (const EvalPlan::Group &group : plan.groups)
            plan.onGroupDone(group, out.fitness);
    }

    // Determinism sentinel: fold every lane's stream digest in fixed
    // (episode round, lane) order — independent of which worker ran
    // what when — and accumulate into the run-level digest.
    for (const auto &venv : venvs) {
        for (size_t i = 0; i < plan.lanes; ++i)
            out.rngAudit.mixAudit(venv->laneAudit(i));
    }
    audit_.mixAudit(out.rngAudit);

    // One sample per evaluation on the env-step counter track: the
    // rollout volume behind this generation's evaluate phase.
    if (obs::traceEnabled()) {
        double steps = 0.0;
        for (const auto &round : out.episodeLengths) {
            for (int s : round)
                steps += static_cast<double>(s);
        }
        obs::traceCounter("eval.env_steps", steps,
                          obs::TraceDetail::Phase);
    }
    return out;
}

Counters
ParallelEval::counters() const
{
    Counters out;
    if (pool_)
        pool_->exportCounters(out);
    return out;
}

} // namespace e3::runtime
