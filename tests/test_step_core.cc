/**
 * @file
 * The allocation-free stepping cores against their vector wrappers:
 * Environment::stepInto vs step() and decodeActionInto vs
 * decodeAction() must agree bit for bit on every registered env.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "env/env_registry.hh"

using namespace e3;

namespace {

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
               0;
}

/** A random action in (and, for Box spaces, a little beyond) bounds. */
Action
randomAction(const Space &space, Rng &rng)
{
    if (space.isDiscrete()) {
        return {static_cast<double>(rng.uniformInt(
            static_cast<uint64_t>(space.count())))};
    }
    Action action(space.size());
    for (size_t i = 0; i < action.size(); ++i)
        action[i] = rng.uniform(space.low()[i] - 0.5,
                                space.high()[i] + 0.5);
    return action;
}

class StepCore : public ::testing::TestWithParam<std::string>
{
};

TEST_P(StepCore, StepIntoMatchesStepWrapperBitForBit)
{
    const EnvSpec &spec = envSpec(GetParam());
    std::unique_ptr<Environment> wrapped = spec.make();
    std::unique_ptr<Environment> core = spec.make();
    const size_t obsSize = core->observationSpace().size();
    ASSERT_EQ(obsSize, spec.numInputs);
    ASSERT_EQ(core->actionSpace().size(), spec.actionSize());

    Rng actions(0xC0FFEE);
    for (uint64_t episode = 0; episode < 4; ++episode) {
        Rng rngA(100 + episode), rngB(100 + episode);
        ASSERT_TRUE(sameBits(wrapped->reset(rngA), core->reset(rngB)));
        std::vector<double> obs(obsSize);
        for (int t = 0; t < core->maxEpisodeSteps(); ++t) {
            const Action action =
                randomAction(core->actionSpace(), actions);
            const StepResult want = wrapped->step(action);
            const StepOutcome got = core->stepInto(action.data(),
                                                   obs.data());
            ASSERT_TRUE(sameBits(want.observation, obs))
                << "episode " << episode << " step " << t;
            ASSERT_EQ(std::memcmp(&want.reward, &got.reward,
                                  sizeof got.reward),
                      0)
                << "episode " << episode << " step " << t;
            ASSERT_EQ(want.done, got.done);
            if (got.done)
                break;
        }
    }
}

TEST_P(StepCore, DecodeActionIntoMatchesDecodeAction)
{
    const EnvSpec &spec = envSpec(GetParam());
    Rng rng(7);
    std::vector<double> outputs(spec.numOutputs);
    Action action(spec.actionSize());
    for (int trial = 0; trial < 200; ++trial) {
        for (double &o : outputs)
            o = rng.uniform(-0.25, 1.25);
        decodeActionInto(spec, outputs.data(), action.data());
        EXPECT_TRUE(sameBits(decodeAction(spec, outputs), action));
    }
}

INSTANTIATE_TEST_SUITE_P(AllEnvs, StepCore,
                         ::testing::ValuesIn(envNames()),
                         [](const auto &info) { return info.param; });

} // namespace
