/**
 * @file
 * The interactive-environment interface ("env" in the paper's Fig. 5).
 *
 * Environments follow OpenAI gym semantics: reset() yields the first
 * observation, step() advances one control interval and reports the new
 * observation, the reward, and whether the episode terminated. All
 * randomness flows through an explicit Rng for reproducibility.
 *
 * stepInto() is the one stepping virtual: it reads the action from and
 * writes the observation into caller-owned buffers, so a rollout loop
 * that owns its buffers steps without touching the heap. step() is the
 * vector-returning convenience wrapper over it.
 */

#ifndef E3_ENV_ENVIRONMENT_HH
#define E3_ENV_ENVIRONMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "env/space.hh"

namespace e3 {

/** Observation and action payloads are plain double vectors. */
using Observation = std::vector<double>;
using Action = std::vector<double>;

/** Reward and termination of one stepInto() call. */
struct StepOutcome
{
    double reward = 0.0; ///< reward for this transition
    bool done = false;   ///< episode terminated (success or failure)
};

/** Result of one environment step. */
struct StepResult
{
    Observation observation; ///< next state observation
    double reward = 0.0;     ///< reward for this transition
    bool done = false;       ///< episode terminated (success or failure)
};

/**
 * Abstract interactive environment.
 *
 * Discrete-action environments read the action as
 * `static_cast<int>(action[0])`; Box-action environments read the full
 * vector (clamped to bounds by the implementation).
 */
class Environment
{
  public:
    virtual ~Environment() = default;

    /** Stable identifier, e.g. "cartpole". */
    virtual std::string name() const = 0;

    virtual const Space &observationSpace() const = 0;
    virtual const Space &actionSpace() const = 0;

    /** Start a new episode; returns the initial observation. */
    virtual Observation reset(Rng &rng) = 0;

    /**
     * Advance one step: the allocation-free core every environment
     * implements.
     * @param action actionSpace().size() elements
     * @param observation receives observationSpace().size() elements
     * @pre reset() has been called and the episode is not done.
     */
    virtual StepOutcome stepInto(const double *action,
                                 double *observation) = 0;

    /**
     * Advance one step; stepInto() with a checked action and a fresh
     * observation vector.
     * @pre reset() has been called and the episode is not done.
     */
    StepResult step(const Action &action);

    /** Step cap after which the episode is truncated. */
    virtual int maxEpisodeSteps() const = 0;
};

} // namespace e3

#endif // E3_ENV_ENVIRONMENT_HH
