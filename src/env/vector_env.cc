#include "env/vector_env.hh"

#include <algorithm>

#include "common/hot.hh"
#include "common/logging.hh"

namespace e3 {

VectorEnv::VectorEnv(const EnvSpec &spec, size_t lanes, uint64_t seed)
    : spec_(spec)
{
    e3_assert(lanes > 0, "VectorEnv needs at least one lane");
    Rng master(seed);
    lanes_.reserve(lanes);
    for (size_t i = 0; i < lanes; ++i) {
        std::unique_ptr<Environment> env = spec.make();
        e3_assert(env->observationSpace().size() == spec.numInputs &&
                      env->actionSpace().size() == spec.actionSize(),
                  spec.name, " spec disagrees with its env's spaces");
        lanes_.emplace_back(std::move(env), master.split(),
                            spec.numInputs);
    }
}

void
VectorEnv::resetLane(size_t lane)
{
    Lane &l = lanes_.at(lane);
    const Observation first = l.env->reset(l.rng);
    e3_assert(first.size() == l.observation.size(), spec_.name,
              " reset returned ", first.size(), " observation elements");
    std::copy(first.begin(), first.end(), l.observation.begin());
    l.fitness = 0.0;
    l.steps = 0;
    l.done = false;
}

E3_HOT bool
VectorEnv::stepLane(size_t lane, const double *action)
{
    Lane &l = lanes_[lane];
    e3_assert(!l.done, "stepLane(", lane, ") on a finished episode");
    const StepOutcome r = l.env->stepInto(action, l.observation.data());
    l.fitness += r.reward;
    ++l.steps;
    l.done = r.done || l.steps >= l.env->maxEpisodeSteps();
    return l.done;
}

const Observation &
VectorEnv::observation(size_t lane) const
{
    return lanes_.at(lane).observation;
}

bool
VectorEnv::done(size_t lane) const
{
    return lanes_.at(lane).done;
}

double
VectorEnv::fitness(size_t lane) const
{
    return lanes_.at(lane).fitness;
}

int
VectorEnv::steps(size_t lane) const
{
    return lanes_.at(lane).steps;
}

const RngAudit &
VectorEnv::laneAudit(size_t lane) const
{
    return lanes_.at(lane).rng.audit();
}

} // namespace e3
