/**
 * @file
 * The rollout step is allocation-free: once warmed up, a
 * ParallelEval::evaluate driven by the platform's policy core
 * allocates the same number of times whether its episodes last ~10
 * steps or hundreds. Per-evaluation setup (lanes, buffers, resets) may
 * allocate; a step may not.
 *
 * This binary replaces the global operator new to count allocations,
 * so it holds nothing else.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "e3/platform.hh"
#include "env/env_registry.hh"
#include "nn/batch_eval.hh"
#include "runtime/parallel_eval.hh"

using namespace e3;

namespace {

std::atomic<long> g_allocations{0};

} // namespace

// As in test_trace.cc: every replaced form funnels through
// malloc/free, and GCC's mismatch warning on the inlined nothrow pair
// is a false positive.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

constexpr size_t kLanes = 16;

/**
 * A cartpole controller population: every lane pushes right when
 * gain * (theta + theta_dot) > 0. Gain 0 with a large bias always
 * pushes right, and the pole falls within ~10 steps; a large gain
 * balances it for hundreds.
 */
std::unique_ptr<BatchNetwork>
cartpolePopulation(double gain)
{
    NetworkDef def = NetworkDef::empty(4, 1);
    def.nodes[0].bias = gain == 0.0 ? 5.0 : 0.0;
    def.conns = {{-3, 0, gain}, {-4, 0, gain}};
    return compilePopulation(std::vector<NetworkDef>(kLanes, def))
        .value();
}

struct Measured
{
    long allocations = 0;
    int minSteps = 0;
    int maxSteps = 0;
};

/** Allocations of one evaluate() after a warm-up call. */
Measured
measure(double gain)
{
    const EnvSpec &spec = envSpec("cartpole");
    const std::unique_ptr<BatchNetwork> batch = cartpolePopulation(gain);
    runtime::ParallelEval runtime{runtime::RuntimeConfig{}};
    runtime::EvalPlan plan;
    plan.spec = &spec;
    plan.lanes = kLanes;
    plan.episodeSeeds = {11, 12};
    plan.policy = rolloutPolicy(*batch, spec);
    runtime.evaluate(plan);

    const long before = g_allocations.load(std::memory_order_relaxed);
    const runtime::EvalOutcome outcome = runtime.evaluate(plan);
    Measured m;
    m.allocations = g_allocations.load(std::memory_order_relaxed) - before;
    m.minSteps = m.maxSteps = outcome.episodeLengths[0][0];
    for (const auto &round : outcome.episodeLengths) {
        for (int steps : round) {
            m.minSteps = std::min(m.minSteps, steps);
            m.maxSteps = std::max(m.maxSteps, steps);
        }
    }
    return m;
}

TEST(RolloutAlloc, StepsDoNotAllocate)
{
    const Measured shortRun = measure(0.0);
    const Measured longRun = measure(20.0);
    ASSERT_LE(shortRun.maxSteps, 20);
    ASSERT_GE(longRun.minSteps, 200);
    EXPECT_GT(shortRun.allocations, 0); // the counter is live
    EXPECT_EQ(shortRun.allocations, longRun.allocations)
        << "episodes of " << shortRun.maxSteps << " vs "
        << longRun.minSteps << "+ steps";
}

} // namespace
