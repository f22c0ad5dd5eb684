/**
 * @file
 * src/runtime: worker pool lifecycle, exception propagation, work
 * stealing, the fan-in group callbacks, and the determinism contract —
 * the parallel evaluator must produce bit-identical results to the
 * serial path for every thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "e3/experiment.hh"
#include "e3/synthetic.hh"
#include "nn/batch_eval.hh"
#include "runtime/parallel_eval.hh"
#include "runtime/thread_pool.hh"

using namespace e3;
using namespace e3::runtime;

TEST(ThreadPool, StartStopRepeatedly)
{
    for (int round = 0; round < 8; ++round) {
        ThreadPool pool(3);
        EXPECT_EQ(pool.workerCount(), 3u);
    }
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    const size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForGrainChunksCoverEverything)
{
    ThreadPool pool(3);
    const size_t n = 1001; // deliberately not a multiple of the grain
    std::vector<int> out(n, 0);
    pool.parallelFor(n, [&](size_t i) { out[i] = static_cast<int>(i); },
                     /*grain=*/64);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], static_cast<int>(i));
}

TEST(ThreadPool, ParallelForPropagatesException)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(256,
                         [&](size_t i) {
                             if (i == 37)
                                 throw std::runtime_error("lane 37");
                         }),
        std::runtime_error);

    // The pool survives a failed batch and runs the next one.
    std::atomic<size_t> count{0};
    pool.parallelFor(100, [&](size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 100u);
}

TEST(ThreadPool, IdleWorkerStealsFromBusyVictim)
{
    ThreadPool pool(2);

    // Three chunks over two workers: chunks 0 and 1 start on worker
    // 0's deque, chunk 2 on worker 1's. Iteration 0 blocks its worker
    // until iteration 1 has run on the other one, so worker 1 must
    // steal chunk 0 or chunk 1 from worker 0.
    std::promise<void> oneRan;
    std::shared_future<void> gate = oneRan.get_future().share();
    pool.parallelFor(3, [&](size_t i) {
        if (i == 0)
            gate.wait();
        else if (i == 1)
            oneRan.set_value();
    });

    uint64_t stolen = 0;
    for (const WorkerStats &ws : pool.stats())
        stolen += ws.tasksStolen;
    EXPECT_GE(stolen, 1u);
}

TEST(ThreadPool, CountersAccountEveryTask)
{
    ThreadPool pool(4);
    pool.parallelFor(500, [](size_t) {});
    uint64_t run = 0;
    for (const WorkerStats &ws : pool.stats())
        run += ws.tasksRun;
    EXPECT_EQ(run, 500u);

    Counters exported;
    pool.exportCounters(exported);
    EXPECT_DOUBLE_EQ(exported.get("runtime.tasks_run"), 500.0);
}

namespace {

/** Evaluate a tiny cartpole population with a fixed linear policy. */
EvalOutcome
evalCartpole(size_t threads)
{
    const EnvSpec &spec = envSpec("cartpole");
    RuntimeConfig cfg;
    cfg.threads = threads;
    ParallelEval runtime(cfg);

    EvalPlan plan;
    plan.spec = &spec;
    plan.lanes = 24;
    plan.episodeSeeds = {11, 22, 33};
    plan.act = [&](size_t lane, const Observation &obs) {
        // Lane-dependent deterministic policy, no shared state.
        const double w = 0.1 * static_cast<double>(lane % 5) - 0.2;
        std::vector<double> outputs = {
            obs[2] * w + obs[0] > 0.0 ? 1.0 : 0.0};
        return decodeAction(spec, outputs);
    };
    return runtime.evaluate(plan);
}

/**
 * Per-round episode lengths of a recurrent cartpole population whose
 * nodes all feed back into themselves, wired like the platform wires
 * a compiled population: the rollout policy plus a per-round reset.
 */
std::vector<std::vector<int>>
recurrentEpisodeLengths(std::vector<uint64_t> seeds, size_t threads)
{
    const EnvSpec &spec = envSpec("cartpole");
    SyntheticParams params;
    params.numIndividuals = 16;
    params.numInputs = spec.numInputs;
    params.numOutputs = spec.numOutputs;
    params.numHidden = 6;
    std::vector<NetworkDef> defs = syntheticPopulation(params, 5);
    for (NetworkDef &def : defs) {
        for (const NetworkDef::Node &node : def.nodes)
            def.conns.push_back({node.id, node.id, 3.0});
    }
    NetworkCompileOptions recurrent;
    recurrent.recurrent = true;
    const std::unique_ptr<BatchNetwork> batch =
        compilePopulation(defs, recurrent).value();

    RuntimeConfig cfg;
    cfg.threads = threads;
    ParallelEval runtime(cfg);
    EvalPlan plan;
    plan.spec = &spec;
    plan.lanes = defs.size();
    plan.episodeSeeds = std::move(seeds);
    plan.policy = rolloutPolicy(*batch, spec);
    plan.resetLane = [&batch](size_t lane) { batch->resetLane(lane); };
    return runtime.evaluate(plan).episodeLengths;
}

} // namespace

TEST(ParallelEval, RecurrentRoundDoesNotDependOnTheRoundBefore)
{
    // Each episode round starts every lane from zero recurrent state,
    // so round s2 plays the same alone as after round s1.
    for (size_t threads : {1u, 4u}) {
        const std::vector<std::vector<int>> alone =
            recurrentEpisodeLengths({22}, threads);
        const std::vector<std::vector<int>> after =
            recurrentEpisodeLengths({11, 22}, threads);
        ASSERT_EQ(after.size(), 2u);
        EXPECT_EQ(alone[0], after[1]) << threads << " threads";
    }
}

TEST(ParallelEval, BitIdenticalAcrossThreadCounts)
{
    const EvalOutcome serial = evalCartpole(1);
    ASSERT_EQ(serial.fitness.size(), 24u);
    for (size_t threads : {2u, 4u, 8u}) {
        const EvalOutcome parallel = evalCartpole(threads);
        EXPECT_EQ(serial.fitness, parallel.fitness)
            << threads << " threads";
        EXPECT_EQ(serial.episodeLengths, parallel.episodeLengths)
            << threads << " threads";
    }
}

TEST(ParallelEval, RngAuditIdenticalAcrossThreadCounts)
{
    // The determinism sentinel: every lane stream's (draws, hash)
    // digest is folded in fixed lane order, so any scheduling-
    // dependent RNG consumption shows up as a digest mismatch even
    // when fitness happens to agree.
    const EvalOutcome serial = evalCartpole(1);
    EXPECT_GT(serial.rngAudit.draws, 0u);
    for (size_t threads : {2u, 4u, 8u}) {
        const EvalOutcome parallel = evalCartpole(threads);
        EXPECT_EQ(serial.rngAudit, parallel.rngAudit)
            << threads << " threads";
    }
}

namespace {

/** A cartpole plan with a fixed policy over @p lanes lanes. */
EvalPlan
cartpolePlan(size_t lanes)
{
    const EnvSpec &spec = envSpec("cartpole");
    EvalPlan plan;
    plan.spec = &spec;
    plan.lanes = lanes;
    plan.episodeSeeds = {5};
    plan.act = [&spec](size_t, const Observation &obs) {
        return decodeAction(spec, {obs[2] > 0.0 ? 1.0 : 0.0});
    };
    return plan;
}

} // namespace

TEST(ParallelEval, GroupCallbackSeesFinalGroupFitness)
{
    // The last case sets the ignored asyncOverlap knob, as hostbench's
    // traced evolve driver does: callbacks still run after fan-in, on
    // the thread that called evaluate().
    struct Case
    {
        size_t threads;
        bool asyncOverlap;
    };
    for (const Case c : {Case{1, false}, Case{4, false}, Case{4, true}}) {
        SCOPED_TRACE(std::to_string(c.threads) + " threads" +
                     (c.asyncOverlap ? ", asyncOverlap set" : ""));
        RuntimeConfig cfg;
        cfg.threads = c.threads;
        cfg.asyncOverlap = c.asyncOverlap;
        ParallelEval runtime(cfg);

        EvalPlan plan = cartpolePlan(12);
        plan.groups = {{1, {0, 1, 2, 3}},
                       {2, {4, 5, 6, 7}},
                       {3, {8, 9, 10, 11}},
                       {4, {}}};
        const std::thread::id caller = std::this_thread::get_id();
        std::vector<double> groupMeans(5, -1.0);
        std::vector<int> calls(5, 0);
        std::vector<bool> onCaller(5, false);
        plan.onGroupDone = [&](const EvalPlan::Group &group,
                               const std::vector<double> &laneFitness) {
            const auto gid = static_cast<size_t>(group.id);
            ++calls[gid];
            onCaller[gid] = std::this_thread::get_id() == caller;
            if (group.lanes.empty())
                return;
            double sum = 0.0;
            for (size_t lane : group.lanes)
                sum += laneFitness[lane];
            groupMeans[gid] = sum / static_cast<double>(group.lanes.size());
        };

        const EvalOutcome out = runtime.evaluate(plan);
        for (size_t gid = 1; gid <= 4; ++gid) {
            EXPECT_EQ(calls[gid], 1) << "group " << gid;
            EXPECT_TRUE(onCaller[gid]) << "group " << gid;
        }
        for (size_t gid = 1; gid <= 3; ++gid) {
            double sum = 0.0;
            for (size_t lane = (gid - 1) * 4; lane < gid * 4; ++lane)
                sum += out.fitness[lane];
            EXPECT_DOUBLE_EQ(groupMeans[gid], sum / 4.0) << "group " << gid;
        }
    }
}

TEST(ParallelEval, ThrowingLaneSkipsItsGroupCallback)
{
    for (size_t threads : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        RuntimeConfig cfg;
        cfg.threads = threads;
        ParallelEval runtime(cfg);

        EvalPlan plan = cartpolePlan(8);
        plan.act = [act = plan.act](size_t lane, const Observation &obs) {
            if (lane == 5)
                throw std::runtime_error("lane 5");
            return act(lane, obs);
        };
        plan.groups = {{1, {0, 1, 2, 3}}, {2, {4, 5, 6, 7}}};
        bool group2Ran = false;
        plan.onGroupDone = [&](const EvalPlan::Group &group,
                               const std::vector<double> &) {
            if (group.id == 2)
                group2Ran = true;
        };

        EXPECT_THROW(runtime.evaluate(plan), std::runtime_error);
        EXPECT_FALSE(group2Ran);
    }
}

namespace {

/** One platform run; returns the full generation trace. */
std::vector<GenerationPoint>
traceOf(const std::string &env, size_t threads,
        BackendKind backend = BackendKind::Cpu)
{
    ExperimentOptions opt;
    opt.seed = 3;
    opt.populationSize = 64;
    opt.episodesPerEval = 2;
    opt.maxGenerations = 20;
    opt.threads = threads;
    return runExperiment(env, backend, opt).trace;
}

void
expectIdenticalTraces(const std::vector<GenerationPoint> &a,
                      const std::vector<GenerationPoint> &b,
                      const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t g = 0; g < a.size(); ++g) {
        SCOPED_TRACE(what + ", generation " + std::to_string(g));
        // Bit-identical, not approximately equal: the parallel path
        // must replay the exact serial arithmetic.
        EXPECT_EQ(a[g].generation, b[g].generation);
        EXPECT_EQ(a[g].bestFitness, b[g].bestFitness);
        EXPECT_EQ(a[g].meanFitness, b[g].meanFitness);
        EXPECT_EQ(a[g].normalizedBest, b[g].normalizedBest);
        EXPECT_EQ(a[g].cumulativeSeconds, b[g].cumulativeSeconds);
        EXPECT_EQ(a[g].meanNodes, b[g].meanNodes);
        EXPECT_EQ(a[g].meanConnections, b[g].meanConnections);
        EXPECT_EQ(a[g].meanDensity, b[g].meanDensity);
        EXPECT_EQ(a[g].numSpecies, b[g].numSpecies);
    }
}

} // namespace

TEST(RuntimeDeterminism, CartpoleTraceIdenticalAcrossThreadCounts)
{
    const auto serial = traceOf("cartpole", 1);
    ASSERT_FALSE(serial.empty());
    for (size_t threads : {2u, 4u, 8u}) {
        expectIdenticalTraces(
            serial, traceOf("cartpole", threads),
            "cartpole, " + std::to_string(threads) + " threads");
    }
}

TEST(RuntimeDeterminism, LunarLanderTraceIdenticalAcrossThreadCounts)
{
    const auto serial = traceOf("lunar_lander", 1);
    ASSERT_FALSE(serial.empty());
    for (size_t threads : {2u, 4u, 8u}) {
        expectIdenticalTraces(
            serial, traceOf("lunar_lander", threads),
            "lunar_lander, " + std::to_string(threads) + " threads");
    }
}

TEST(RuntimeDeterminism, MountainCarBlockDealingIdenticalAcrossSchedules)
{
    // Lanes are dealt to workers in contiguous blocks whose boundaries
    // move with the worker count; mountain_car's lanes mostly run to
    // the step cap, so every block is long and contended. Every
    // worker count must replay the serial trace.
    const auto serial = traceOf("mountain_car", 1, BackendKind::Inax);
    ASSERT_FALSE(serial.empty());
    for (size_t threads : {2u, 4u, 8u}) {
        expectIdenticalTraces(
            serial, traceOf("mountain_car", threads, BackendKind::Inax),
            "mountain_car/inax, " + std::to_string(threads) + " threads");
    }
}

TEST(RuntimeDeterminism, RngAuditIdenticalAcrossFullRuns)
{
    // End-to-end sentinel: a whole evolve run folds every evaluation's
    // audit into RunResult::rngAudit. Serial and threaded runs must
    // report the same (draws, hash) digest.
    auto auditOf = [](size_t threads) {
        ExperimentOptions opt;
        opt.seed = 3;
        opt.populationSize = 64;
        opt.episodesPerEval = 2;
        opt.maxGenerations = 8;
        opt.threads = threads;
        return runExperiment("cartpole", BackendKind::Cpu, opt).rngAudit;
    };
    const RngAudit serial = auditOf(1);
    EXPECT_GT(serial.draws, 0u);
    for (size_t threads : {2u, 4u, 8u}) {
        EXPECT_EQ(serial, auditOf(threads)) << threads << " threads";
    }
}
