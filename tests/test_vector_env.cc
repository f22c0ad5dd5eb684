#include "env/vector_env.hh"

#include <gtest/gtest.h>

#include <set>

namespace e3 {
namespace {

void
resetLanes(VectorEnv &venv)
{
    for (size_t i = 0; i < venv.size(); ++i)
        venv.resetLane(i);
}

/** Step every live lane with @p action; returns the lanes still live. */
size_t
stepLive(VectorEnv &venv, const Action &action)
{
    size_t live = 0;
    for (size_t i = 0; i < venv.size(); ++i) {
        if (!venv.done(i) && !venv.stepLane(i, action.data()))
            ++live;
    }
    return live;
}

TEST(VectorEnv, LanesStartLive)
{
    VectorEnv venv(envSpec("cartpole"), 8, 42);
    resetLanes(venv);
    EXPECT_EQ(venv.size(), 8u);
    for (size_t i = 0; i < venv.size(); ++i) {
        EXPECT_FALSE(venv.done(i));
        EXPECT_EQ(venv.observation(i).size(), 4u);
        EXPECT_EQ(venv.steps(i), 0);
    }
}

TEST(VectorEnv, LanesAreIndependentlySeeded)
{
    VectorEnv venv(envSpec("cartpole"), 4, 7);
    resetLanes(venv);
    // At least two lanes must differ in their initial observation.
    bool anyDiffer = false;
    for (size_t i = 1; i < venv.size(); ++i)
        anyDiffer |= venv.observation(i) != venv.observation(0);
    EXPECT_TRUE(anyDiffer);
}

TEST(VectorEnv, DeterministicAcrossInstances)
{
    VectorEnv a(envSpec("pendulum"), 4, 99), b(envSpec("pendulum"), 4, 99);
    resetLanes(a);
    resetLanes(b);
    const Action action{0.5};
    for (int t = 0; t < 10; ++t) {
        stepLive(a, action);
        stepLive(b, action);
    }
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(a.observation(i), b.observation(i));
        EXPECT_DOUBLE_EQ(a.fitness(i), b.fitness(i));
    }
}

TEST(VectorEnv, EpisodesTerminateIndependently)
{
    // Cartpole with a constant push: different initial states fail at
    // different steps — the variance source behind the paper's U(PU)
    // synchronization analysis.
    VectorEnv venv(envSpec("cartpole"), 16, 5);
    resetLanes(venv);
    while (stepLive(venv, Action{1.0}) > 0) {
    }

    std::set<int> lengths;
    for (size_t i = 0; i < venv.size(); ++i)
        lengths.insert(venv.steps(i));
    EXPECT_GT(lengths.size(), 1u);
}

TEST(VectorEnv, DoneLanesFreeze)
{
    VectorEnv venv(envSpec("mountain_car"), 2, 11);
    resetLanes(venv);
    const Action idle{1.0}; // idle throttle
    for (int t = 0; t < 200; ++t)
        stepLive(venv, idle);
    // Truncated at maxEpisodeSteps.
    EXPECT_TRUE(venv.done(0));
    EXPECT_TRUE(venv.done(1));
    EXPECT_EQ(venv.steps(0), 200);
    // A finished lane cannot be stepped until it is reset.
    EXPECT_DEATH((void)venv.stepLane(0, idle.data()), "finished episode");
    venv.resetLane(0);
    EXPECT_FALSE(venv.stepLane(0, idle.data()));
    EXPECT_EQ(venv.steps(0), 1);
}

TEST(VectorEnv, FitnessAccumulatesReward)
{
    VectorEnv venv(envSpec("mountain_car"), 1, 3);
    resetLanes(venv);
    for (int t = 0; t < 10; ++t)
        stepLive(venv, Action{1.0});
    EXPECT_DOUBLE_EQ(venv.fitness(0), -10.0);
}

} // namespace
} // namespace e3
