#include "env/environment.hh"

#include "common/logging.hh"

namespace e3 {

StepResult
Environment::step(const Action &action)
{
    e3_assert(action.size() >= actionSpace().size(), name(), " expects ",
              actionSpace().size(), " action element(s), got ",
              action.size());
    StepResult result;
    result.observation.resize(observationSpace().size());
    const StepOutcome outcome =
        stepInto(action.data(), result.observation.data());
    result.reward = outcome.reward;
    result.done = outcome.done;
    return result;
}

} // namespace e3
