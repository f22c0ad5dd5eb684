/**
 * @file
 * google-benchmark micro suite: per-operation costs of the primitives
 * the platform composes — irregular-network inference, genome decode
 * ("CreateNet"), mutation, INAX scheduling, the systolic baseline, and
 * the text loaders a server start or a resume pays for. These ground
 * the analytical timing constants in measurable numbers.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "e3/synthetic.hh"
#include "inax/inax.hh"
#include "inax/systolic.hh"
#include "neat/mutation.hh"
#include "neat/population.hh"
#include "neat/serialize.hh"
#include "nn/batch_eval.hh"
#include "persist/checkpoint.hh"
#include "verify/reference_layering.hh"

using namespace e3;

namespace {

/** Per-field maximum over repetitions: of items_per_second, the best
 * repetition, which tools/bench_regression.py gates on. */
double
maxOf(const std::vector<double> &values)
{
    return *std::max_element(values.begin(), values.end());
}

SyntheticParams
paramsWithHidden(size_t hidden)
{
    SyntheticParams p;
    p.numIndividuals = 1;
    p.numHidden = hidden;
    return p;
}

void
BM_IrregularInference(benchmark::State &state)
{
    Rng rng(1);
    const auto def = syntheticIrregularNet(
        paramsWithHidden(static_cast<size_t>(state.range(0))), rng);
    auto net = Network::create(def);
    std::vector<double> input(net.numInputs(), 0.5);
    for (auto _ : state)
        benchmark::DoNotOptimize(net.activate(input));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IrregularInference)->Arg(10)->Arg(30)->Arg(100);

/**
 * The population-inference pair: same synthetic population once
 * through the pre-batching platform shape (the verifier's layered
 * per-genome ReferenceNetwork, the allocating activate() wrapper) and
 * once through one SoA activateBatch(). Items = individual inferences,
 * so items/s between the twins is the population-inference speedup
 * the ablation gates on.
 *
 * Two workloads: the paper-default sigmoid population measures the
 * end-to-end number (libm exp dominates, and that work is identical
 * scalar math in both paths), while the ReLU "kernel" variant isolates
 * the execution substrate — traversal, dispatch and allocation — which
 * is what the batch engine actually replaces. The kernel pair is one
 * benchmark, BM_PopulationInferenceKernelPaired below.
 */
enum PopWorkload { WorkloadSigmoid = 0, WorkloadReLU = 1 };

std::vector<NetworkDef>
populationWorkload(size_t individuals, int workload)
{
    SyntheticParams p;
    p.numIndividuals = individuals;
    p.numHidden = 30;
    auto defs = syntheticPopulation(p, 11);
    if (workload == WorkloadReLU)
        for (auto &def : defs)
            for (auto &node : def.nodes)
                node.act = Activation::ReLU;
    return defs;
}

void
BM_PopulationInference(benchmark::State &state)
{
    const auto defs = populationWorkload(
        static_cast<size_t>(state.range(0)), WorkloadSigmoid);
    std::vector<verify::ReferenceNetwork> nets;
    for (const auto &def : defs)
        nets.push_back(verify::ReferenceNetwork::create(def));
    std::vector<double> input(nets[0].numInputs(), 0.5);
    for (auto _ : state)
        for (auto &net : nets)
            benchmark::DoNotOptimize(net.activate(input));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(nets.size()));
}
BENCHMARK(BM_PopulationInference)
    ->Arg(128)->Arg(256)->ComputeStatistics("max", maxOf);

void
BM_PopulationInferenceBatched(benchmark::State &state)
{
    const auto defs = populationWorkload(
        static_cast<size_t>(state.range(0)), WorkloadSigmoid);
    auto batch = compilePopulation(defs).value();
    const size_t lanes = batch->lanes();
    std::vector<double> in(lanes * batch->numInputs(), 0.5);
    std::vector<double> out(lanes * batch->numOutputs());
    for (auto _ : state) {
        batch->activateBatch(lanes, in.data(), batch->numInputs(),
                             out.data(), batch->numOutputs());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(lanes));
}
BENCHMARK(BM_PopulationInferenceBatched)
    ->Arg(128)->Arg(256)->ComputeStatistics("max", maxOf);

/**
 * The ReLU "kernel" pair timed inside one benchmark: every iteration
 * gives each side a time slice of whole passes over the population,
 * per-genome first, so both sides see the same stretch of host load.
 * The "speedup" counter is the repetition's batched pass rate over its
 * per-genome pass rate; tools/bench_regression.py gates the best
 * repetition's. Timed as two benchmarks, a busy host could slow one
 * side for a whole repetition and not the other. The slices are long
 * because the batched kernel runs about twice as slow for its first
 * passes after the per-genome side and takes milliseconds to recover:
 * at pop 128 on a 4-vCPU VM the ratio read 3.7x with 1 ms slices,
 * 4.2x with 2 ms and 5.0x with 5 ms, against 6.1x timed apart.
 */
void
BM_PopulationInferenceKernelPaired(benchmark::State &state)
{
    using Clock = std::chrono::steady_clock;
    const auto defs = populationWorkload(
        static_cast<size_t>(state.range(0)), WorkloadReLU);
    std::vector<verify::ReferenceNetwork> nets;
    for (const auto &def : defs)
        nets.push_back(verify::ReferenceNetwork::create(def));
    std::vector<double> input(nets[0].numInputs(), 0.5);
    auto batch = compilePopulation(defs).value();
    const size_t lanes = batch->lanes();
    std::vector<double> in(lanes * batch->numInputs(), 0.5);
    std::vector<double> out(lanes * batch->numOutputs());

    struct Side
    {
        Clock::duration time{};
        double passes = 0.0;
    };
    // Run @p pass for at least one slice and account it to @p side.
    auto slice = [](Side &side, auto &&pass) {
        const Clock::time_point start = Clock::now();
        Clock::time_point now;
        do {
            pass();
            side.passes += 1.0;
            now = Clock::now();
        } while (now - start < std::chrono::milliseconds(5));
        side.time += now - start;
    };
    Side perGenome, batched;
    for (auto _ : state) {
        slice(perGenome, [&] {
            for (auto &net : nets)
                benchmark::DoNotOptimize(net.activate(input));
        });
        slice(batched, [&] {
            batch->activateBatch(lanes, in.data(), batch->numInputs(),
                                 out.data(), batch->numOutputs());
            benchmark::DoNotOptimize(out.data());
        });
    }
    auto rate = [](const Side &side) {
        return side.passes / std::chrono::duration<double>(side.time).count();
    };
    state.counters["speedup"] = rate(batched) / rate(perGenome);
    state.SetItemsProcessed(static_cast<int64_t>(
        (perGenome.passes + batched.passes) * static_cast<double>(lanes)));
}
BENCHMARK(BM_PopulationInferenceKernelPaired)
    ->Arg(128)->Arg(256)->ComputeStatistics("max", maxOf);

/**
 * Generation-grain comparison including compilation: the per-genome
 * path pays one compileNetwork() per genome (the production entry,
 * invariant checks included) plus allocating activates for an
 * episode-scale step count; the batched path compiles the population once through
 * compilePopulation() and runs the same steps with zero per-step
 * allocation. This is the end-to-end cost evaluateFunctional sees.
 */
void
BM_GenerationInferencePerGenome(benchmark::State &state)
{
    const auto defs = populationWorkload(128, WorkloadSigmoid);
    const int steps = 200;
    std::vector<double> input(8, 0.5);
    for (auto _ : state) {
        double sink = 0.0;
        for (const auto &def : defs) {
            auto net = compileNetwork(def).value();
            for (int s = 0; s < steps; ++s)
                sink += net.activate(input)[0];
        }
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 128 * steps);
}
BENCHMARK(BM_GenerationInferencePerGenome)->ComputeStatistics("max", maxOf);

void
BM_GenerationInferenceBatched(benchmark::State &state)
{
    const auto defs = populationWorkload(128, WorkloadSigmoid);
    const int steps = 200;
    for (auto _ : state) {
        auto batch = compilePopulation(defs).value();
        std::vector<double> in(128 * batch->numInputs(), 0.5);
        std::vector<double> out(128 * batch->numOutputs());
        double sink = 0.0;
        for (int s = 0; s < steps; ++s) {
            batch->activateBatch(128, in.data(), batch->numInputs(),
                                 out.data(), batch->numOutputs());
            sink += out[0];
        }
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 128 * steps);
}
BENCHMARK(BM_GenerationInferenceBatched)->ComputeStatistics("max", maxOf);

void
BM_CreateNet(benchmark::State &state)
{
    Rng rng(2);
    const auto def = syntheticIrregularNet(
        paramsWithHidden(static_cast<size_t>(state.range(0))), rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(Network::create(def));
}
BENCHMARK(BM_CreateNet)->Arg(10)->Arg(30);

void
BM_MutateGenome(benchmark::State &state)
{
    NeatConfig cfg = NeatConfig::forTask(8, 4, 1.0);
    Rng rng(3);
    InnovationTracker innovation(4);
    Genome genome(0);
    genome.configureNew(cfg, rng);
    for (auto _ : state)
        mutateGenome(genome, cfg, rng, innovation);
}
BENCHMARK(BM_MutateGenome);

void
BM_GenomeDistance(benchmark::State &state)
{
    NeatConfig cfg = NeatConfig::forTask(8, 4, 1.0);
    Rng rng(4);
    InnovationTracker innovation(4);
    Genome a(0), b(1);
    a.configureNew(cfg, rng);
    b.configureNew(cfg, rng);
    for (int i = 0; i < 20; ++i) {
        mutateGenome(a, cfg, rng, innovation);
        mutateGenome(b, cfg, rng, innovation);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(a.distance(b, cfg));
}
BENCHMARK(BM_GenomeDistance);

void
BM_InaxSchedule(benchmark::State &state)
{
    Rng rng(5);
    const auto def = syntheticIrregularNet(paramsWithHidden(30), rng);
    const NetStats stats = computeNetStats(def);
    InaxConfig cfg;
    cfg.numPEs = static_cast<size_t>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(scheduleNetwork(stats, cfg));
}
BENCHMARK(BM_InaxSchedule)->Arg(1)->Arg(4)->Arg(16);

void
BM_SystolicCost(benchmark::State &state)
{
    Rng rng(6);
    const auto def = syntheticIrregularNet(paramsWithHidden(30), rng);
    InaxConfig cfg;
    cfg.numPEs = 16;
    for (auto _ : state)
        benchmark::DoNotOptimize(systolicIndividualCost(def, cfg));
}
BENCHMARK(BM_SystolicCost);

void
BM_AcceleratorGeneration(benchmark::State &state)
{
    const auto population = syntheticPopulation(SyntheticParams{}, 7);
    Rng rng(8);
    const auto lengths =
        syntheticEpisodeLengths(population.size(), 60, 200, rng);
    InaxConfig cfg;
    cfg.numPUs = 50;
    cfg.numPEs = 4;
    std::vector<IndividualCost> costs;
    for (const auto &def : population)
        costs.push_back(puIndividualCost(def, cfg));
    for (auto _ : state)
        benchmark::DoNotOptimize(runAccelerator(costs, lengths, cfg));
}
BENCHMARK(BM_AcceleratorGeneration);

/** A population evolved far enough for realistic genome sizes. */
Population
evolvedPopulation(size_t size, int generations)
{
    NeatConfig cfg = NeatConfig::forTask(8, 4, 1e18);
    cfg.populationSize = size;
    Population pop(cfg, 9);
    for (int gen = 0; gen <= generations; ++gen) {
        for (auto &[key, genome] : pop.genomes())
            genome.fitness = static_cast<double>(genome.conns.size()) +
                             1e-3 * key;
        if (gen < generations)
            pop.advance();
    }
    return pop;
}

/** genomeFromString (validated) on the champion text of a population. */
void
BM_GenomeParse(benchmark::State &state)
{
    const std::string text = genomeToString(evolvedPopulation(50, 20).best());
    for (auto _ : state)
        benchmark::DoNotOptimize(genomeFromString(text));
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations() *
                                                 text.size()));
}
BENCHMARK(BM_GenomeParse);

/** A 150-genome snapshot's text, as a 20-generation run writes it. */
std::string
snapshotText()
{
    const Population pop = evolvedPopulation(150, 20);
    persist::Checkpoint ck;
    ck.generation = 21;
    ck.champion = pop.best();
    ck.population = pop.saveState();
    return persist::checkpointToString(ck);
}

/** checkpointFromString on a whole snapshot: parse plus verification. */
void
BM_CheckpointLoad(benchmark::State &state)
{
    const std::string text = snapshotText();
    for (auto _ : state)
        benchmark::DoNotOptimize(persist::checkpointFromString(text));
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations() *
                                                 text.size()));
}
BENCHMARK(BM_CheckpointLoad)->ComputeStatistics("max", maxOf);

/** checkpointHeadFromString on the same snapshot: what serve reads. */
void
BM_ChampionLoad(benchmark::State &state)
{
    const std::string text = snapshotText();
    for (auto _ : state)
        benchmark::DoNotOptimize(persist::checkpointHeadFromString(text));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChampionLoad)->ComputeStatistics("max", maxOf);

} // namespace

BENCHMARK_MAIN();
