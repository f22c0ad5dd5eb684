#include "env/env_registry.hh"

#include <algorithm>

#include "common/hot.hh"
#include "common/logging.hh"
#include "env/acrobot.hh"
#include "env/bipedal_walker.hh"
#include "env/cartpole.hh"
#include "env/catch_game.hh"
#include "env/lunar_lander.hh"
#include "env/mountain_car.hh"
#include "env/mountain_car_continuous.hh"
#include "env/pendulum.hh"

namespace e3 {

namespace {

// Output-node counts follow the paper's Table V / Fig. 10 footnote:
// cartpole uses a single thresholded output, acrobot/mountain-car use
// one-node-per-action argmax, bipedal/pendulum are continuous.
const std::vector<EnvSpec> &
allSpecs()
{
    static const std::vector<EnvSpec> specs = {
        {"cartpole", 1, 4, 1, EnvSpec::Decode::Binary, 475.0, 0.0,
         0.0, 0.0},
        {"acrobot", 2, 6, 3, EnvSpec::Decode::Argmax, -100.0, -500.0,
         0.0, 0.0},
        {"mountain_car", 3, 2, 3, EnvSpec::Decode::Argmax, -115.0,
         -200.0, 0.0, 0.0},
        {"bipedal_walker", 4, 24, 4, EnvSpec::Decode::Continuous, 80.0,
         -100.0, -1.0, 1.0},
        {"lunar_lander", 5, 8, 4, EnvSpec::Decode::Argmax, 245.0,
         -250.0, 0.0, 0.0},
        {"pendulum", 6, 3, 1, EnvSpec::Decode::Continuous, -180.0,
         -1800.0, -2.0, 2.0},
        // Env7: the Atari-like game of the paper's Fig. 11 suite.
        {"catch", 7, 80, 3, EnvSpec::Decode::Argmax, 5.0, -10.0, 0.0,
         0.0},
        // Extras beyond the paper's table, for examples/tests.
        {"mountain_car_continuous", 0, 2, 1, EnvSpec::Decode::Continuous,
         90.0, -50.0, -1.0, 1.0},
    };
    return specs;
}

} // namespace

std::unique_ptr<Environment>
EnvSpec::make() const
{
    if (name == "catch")
        return std::make_unique<CatchGame>();
    if (name == "cartpole")
        return std::make_unique<CartPole>();
    if (name == "acrobot")
        return std::make_unique<Acrobot>();
    if (name == "mountain_car")
        return std::make_unique<MountainCar>();
    if (name == "mountain_car_continuous")
        return std::make_unique<MountainCarContinuous>();
    if (name == "bipedal_walker")
        return std::make_unique<BipedalWalker>();
    if (name == "lunar_lander")
        return std::make_unique<LunarLander>();
    if (name == "pendulum")
        return std::make_unique<Pendulum>();
    e3_panic("EnvSpec for unknown environment '", name, "'");
}

double
EnvSpec::normalizeFitness(double fitness) const
{
    const double span = requiredFitness - fitnessFloor;
    e3_assert(span > 0.0, "degenerate fitness range for ", name);
    return std::clamp((fitness - fitnessFloor) / span, 0.0, 1.0);
}

namespace {

std::vector<EnvSpec>
suiteUpTo(int maxIndex)
{
    std::vector<EnvSpec> s;
    for (const auto &spec : allSpecs()) {
        if (spec.paperIndex > 0 && spec.paperIndex <= maxIndex)
            s.push_back(spec);
    }
    std::sort(s.begin(), s.end(),
              [](const EnvSpec &a, const EnvSpec &b) {
                  return a.paperIndex < b.paperIndex;
              });
    return s;
}

} // namespace

const std::vector<EnvSpec> &
envSuite()
{
    static const std::vector<EnvSpec> suite = suiteUpTo(6);
    return suite;
}

const std::vector<EnvSpec> &
envSuiteExtended()
{
    static const std::vector<EnvSpec> suite = suiteUpTo(7);
    return suite;
}

const EnvSpec *
findEnvSpec(const std::string &name)
{
    for (const auto &spec : allSpecs()) {
        if (spec.name == name)
            return &spec;
    }
    return nullptr;
}

const EnvSpec &
envSpec(const std::string &name)
{
    if (const EnvSpec *spec = findEnvSpec(name))
        return *spec;
    e3_panic("unknown environment '", name,
             "' (validate user input with findEnvSpec)");
}

std::vector<std::string>
envNames()
{
    std::vector<std::string> names;
    for (const auto &spec : allSpecs())
        names.push_back(spec.name);
    return names;
}

E3_HOT void
decodeActionInto(const EnvSpec &spec, const double *outputs,
                 double *action)
{
    switch (spec.decode) {
      case EnvSpec::Decode::Binary:
        action[0] = outputs[0] > 0.5 ? 1.0 : 0.0;
        return;

      case EnvSpec::Decode::Argmax: {
        size_t best = 0;
        for (size_t i = 1; i < spec.numOutputs; ++i) {
            if (outputs[i] > outputs[best])
                best = i;
        }
        action[0] = static_cast<double>(best);
        return;
      }

      case EnvSpec::Decode::Continuous:
        for (size_t i = 0; i < spec.numOutputs; ++i) {
            const double u = std::clamp(outputs[i], 0.0, 1.0);
            action[i] = spec.actionLo + u * (spec.actionHi - spec.actionLo);
        }
        return;
    }
    e3_panic("unhandled decode kind");
}

Action
decodeAction(const EnvSpec &spec, const std::vector<double> &outputs)
{
    e3_assert(outputs.size() >= spec.numOutputs,
              "need ", spec.numOutputs, " outputs for ", spec.name,
              ", got ", outputs.size());
    Action action(spec.actionSize());
    decodeActionInto(spec, outputs.data(), action.data());
    return action;
}

} // namespace e3
