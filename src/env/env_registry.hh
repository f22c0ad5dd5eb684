/**
 * @file
 * Registry of benchmark environments and their agent-facing metadata.
 *
 * Each EnvSpec records what the learning algorithms need to know about an
 * environment: observation/output dimensions, how raw network outputs map
 * to an env action, and the required-fitness threshold the paper uses as
 * the stop condition ("the algorithm stops when the fitness is
 * achieved"). The six-entry suite order follows the paper's footnote 4:
 * Env1 cartpole, Env2 acrobot, Env3 mountain car, Env4 bipedal,
 * Env5 lunar lander, Env6 pendulum.
 */

#ifndef E3_ENV_ENV_REGISTRY_HH
#define E3_ENV_ENV_REGISTRY_HH

#include <memory>
#include <string>
#include <vector>

#include "env/environment.hh"

namespace e3 {

/** Static description of a benchmark environment. */
struct EnvSpec
{
    /** How raw network outputs (in [0, 1]) become an env action. */
    enum class Decode
    {
        Binary,     ///< one output, threshold at 0.5 -> action {0, 1}
        Argmax,     ///< n outputs, pick the index of the largest
        Continuous, ///< scale each output into the Box action range
    };

    std::string name;       ///< registry key, e.g. "cartpole"
    int paperIndex;         ///< 1-6 per the paper's footnote; 0 if extra
    size_t numInputs;       ///< observation dimension
    size_t numOutputs;      ///< network output nodes (paper's PE counts)
    Decode decode;          ///< output-to-action mapping
    double requiredFitness; ///< stop threshold (episode-reward scale)
    double fitnessFloor;    ///< lower anchor for [0, 1] normalization
    double actionLo = 0.0;  ///< Continuous decode: per-element low bound
    double actionHi = 0.0;  ///< Continuous decode: per-element high bound

    /** Instantiate a fresh environment. */
    std::unique_ptr<Environment> make() const;

    /**
     * Elements of a decoded action: numOutputs for Continuous, else
     * the single discrete index.
     */
    size_t actionSize() const
    {
        return decode == Decode::Continuous ? numOutputs : 1;
    }

    /** Normalize a fitness into [0, 1] against floor/required. */
    double normalizeFitness(double fitness) const;
};

/** The paper's six-environment suite, in Env1..Env6 order. */
const std::vector<EnvSpec> &envSuite();

/**
 * The extended Env1..Env7 suite of the paper's Fig. 11 ("a suite of
 * OpenAI env: Env1-Env7"): the control six plus the Atari-like catch
 * game.
 */
const std::vector<EnvSpec> &envSuiteExtended();

/**
 * Look up any registered environment (suite + extras) by name;
 * nullptr if the name is unknown.
 */
const EnvSpec *findEnvSpec(const std::string &name);

/**
 * As findEnvSpec, for names already known to be registered.
 * @pre the name is registered — validate user-supplied names with
 *      findEnvSpec at the boundary; an unknown name here is a caller
 *      bug and panics.
 */
const EnvSpec &envSpec(const std::string &name);

/** All registered names. */
std::vector<std::string> envNames();

/**
 * Decode raw network outputs into an environment action: the
 * allocation-free core under decodeAction().
 * @param spec the environment the action is for
 * @param outputs spec.numOutputs network outputs, expected in [0, 1]
 *        (sigmoid range)
 * @param action receives spec.actionSize() elements
 */
void decodeActionInto(const EnvSpec &spec, const double *outputs,
                      double *action);

/**
 * Decode raw network outputs into an environment action.
 * @param spec the environment the action is for
 * @param outputs network outputs, expected in [0, 1] (sigmoid range)
 */
Action decodeAction(const EnvSpec &spec,
                    const std::vector<double> &outputs);

} // namespace e3

#endif // E3_ENV_ENV_REGISTRY_HH
