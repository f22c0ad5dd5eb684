/**
 * @file
 * The per-step inference surface (the E3_HOT functions, common/hot.hh)
 * is allocation-free once warmed up:
 *
 *  - every registered env's Environment::stepInto allocates nothing;
 *  - BatchNetwork::activateBatch/activateLane allocate nothing in the
 *    float, quantized and recurrent value modes;
 *  - a ParallelEval::evaluate driven by the platform's policy core
 *    allocates the same number of times whether its episodes last ~10
 *    steps or hundreds. Per-evaluation setup (lanes, buffers, resets)
 *    may allocate; a step may not.
 *
 * The counter sees every allocation the call makes, however deep in
 * its callees. This binary replaces the global operator new to count
 * allocations, so it holds nothing else.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/rng.hh"
#include "e3/platform.hh"
#include "e3/synthetic.hh"
#include "env/env_registry.hh"
#include "nn/batch_eval.hh"
#include "runtime/parallel_eval.hh"

using namespace e3;

namespace {

std::atomic<long> g_allocations{0};

long
allocations()
{
    return g_allocations.load(std::memory_order_relaxed);
}

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

    const long before = allocations();
    const runtime::EvalOutcome outcome = runtime.evaluate(plan);
    Measured m;
    m.allocations = allocations() - before;
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

/**
 * Allocations made by @p steps stepInto calls of a fresh @p name env
 * after @p warmup uncounted ones. Actions decode random outputs, as a
 * rollout's would; an episode that ends is reset outside the count.
 */
long
stepAllocations(const std::string &name, int warmup, int steps)
{
    const EnvSpec &spec = envSpec(name);
    const std::unique_ptr<Environment> env = spec.make();
    Rng rng(17);
    std::vector<double> outputs(spec.numOutputs);
    std::vector<double> action(spec.actionSize());
    std::vector<double> observation(spec.numInputs);
    env->reset(rng);
    int episodeSteps = 0;
    long counted = 0;
    for (int i = 0; i < warmup + steps; ++i) {
        for (double &o : outputs)
            o = rng.uniform(0.0, 1.0);
        decodeActionInto(spec, outputs.data(), action.data());
        const long before = allocations();
        const StepOutcome outcome =
            env->stepInto(action.data(), observation.data());
        if (i >= warmup)
            counted += allocations() - before;
        if (outcome.done || ++episodeSteps >= env->maxEpisodeSteps()) {
            env->reset(rng);
            episodeSteps = 0;
        }
    }
    return counted;
}

TEST(RolloutAlloc, EveryEnvStepIntoIsAllocationFree)
{
    const std::vector<std::string> names = envNames();
    ASSERT_FALSE(names.empty());
    for (const std::string &name : names)
        EXPECT_EQ(stepAllocations(name, 50, 2000), 0) << name;
}

/** A population with every activation and aggregation in use. */
std::vector<NetworkDef>
mixedPopulation(size_t lanes, bool cyclic)
{
    SyntheticParams params;
    params.numIndividuals = lanes;
    params.numInputs = 5;
    params.numOutputs = 3;
    params.numHidden = 12;
    params.sparsity = 0.35;
    std::vector<NetworkDef> defs = syntheticPopulation(params, 31);
    Rng rng(32);
    for (NetworkDef &def : defs) {
        for (NetworkDef::Node &node : def.nodes) {
            node.act = activationFromIndex(
                static_cast<int>(rng.uniformInt(numActivations)));
            node.agg = aggregationFromIndex(
                static_cast<int>(rng.uniformInt(numAggregations)));
        }
        // Self-loops, and back edges out of the first output (no
        // synthetic edge leaves an output, so none is a duplicate).
        if (cyclic) {
            for (const NetworkDef::Node &node : def.nodes) {
                def.conns.push_back({node.id, node.id, 0.5});
                if (node.id != def.outputIds[0])
                    def.conns.push_back({def.outputIds[0], node.id, -0.5});
            }
        }
    }
    return defs;
}

/** Allocations of 20 warmed activateBatch + activateLane rounds. */
long
activationAllocations(const NetworkCompileOptions &options)
{
    const std::vector<NetworkDef> defs =
        mixedPopulation(kLanes, options.recurrent);
    const std::unique_ptr<BatchNetwork> net =
        compilePopulation(defs, options).value();
    const size_t numIn = net->numInputs();
    const size_t numOut = net->numOutputs();
    std::vector<double> inputs(kLanes * numIn);
    std::vector<double> outputs(kLanes * numOut);
    Rng rng(33);
    auto round = [&] {
        for (double &v : inputs)
            v = rng.uniform(-2.0, 2.0);
        net->activateBatch(kLanes, inputs.data(), numIn, outputs.data(),
                           numOut);
        for (size_t lane = 0; lane < kLanes; ++lane)
            net->activateLane(lane, inputs.data() + lane * numIn,
                              outputs.data() + lane * numOut);
    };
    round();
    const long before = allocations();
    for (int i = 0; i < 20; ++i)
        round();
    return allocations() - before;
}

TEST(RolloutAlloc, ActivationIsAllocationFreeInEveryValueMode)
{
    NetworkCompileOptions quantized;
    quantized.quantization = FixedPointFormat{};
    NetworkCompileOptions recurrent;
    recurrent.recurrent = true;
    EXPECT_EQ(activationAllocations({}), 0) << "float";
    EXPECT_EQ(activationAllocations(quantized), 0) << "quantized";
    EXPECT_EQ(activationAllocations(recurrent), 0) << "recurrent";
}

} // namespace
