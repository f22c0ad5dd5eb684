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
VectorEnv::resetAll()
{
    for (size_t i = 0; i < lanes_.size(); ++i)
        resetLane(i);
}

size_t
VectorEnv::stepAll(const std::vector<Action> &actions)
{
    e3_assert(actions.size() == lanes_.size(),
              "need ", lanes_.size(), " actions, got ", actions.size());
    size_t live = 0;
    for (size_t i = 0; i < lanes_.size(); ++i) {
        if (lanes_[i].done)
            continue;
        e3_assert(actions[i].size() >= spec_.actionSize(), "lane ", i,
                  " needs ", spec_.actionSize(), " action element(s)");
        if (!stepLane(i, actions[i].data()))
            ++live;
    }
    return live;
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

bool
VectorEnv::allDone() const
{
    for (const auto &lane : lanes_) {
        if (!lane.done)
            return false;
    }
    return true;
}

const RngAudit &
VectorEnv::laneAudit(size_t lane) const
{
    return lanes_.at(lane).rng.audit();
}

size_t
VectorEnv::liveCount() const
{
    size_t n = 0;
    for (const auto &lane : lanes_)
        n += lane.done ? 0 : 1;
    return n;
}

} // namespace e3
