/**
 * @file
 * E3 platform tests: closed-loop runs on each backend, controlled
 * functional equivalence across backends, budget/termination handling.
 */

#include <gtest/gtest.h>

#include <fstream>

#include "e3/cpu_backend.hh"
#include "e3/experiment.hh"
#include "e3/gpu_backend.hh"
#include "e3/inax_backend.hh"
#include "neat/config_io.hh"
#include "neat/serialize.hh"

namespace e3 {
namespace {

PlatformConfig
smallConfig(const std::string &env)
{
    PlatformConfig cfg;
    cfg.envName = env;
    cfg.seed = 9;
    cfg.populationSize = 30;
    cfg.maxGenerations = 5;
    return cfg;
}

TEST(Platform, CpuRunProducesTraceAndTiming)
{
    E3Platform platform(smallConfig("cartpole"),
                        std::make_unique<CpuBackend>());
    const RunResult r = platform.run();
    EXPECT_EQ(r.backendName, "E3-CPU");
    EXPECT_GE(r.generations, 1);
    EXPECT_EQ(r.trace.size(), static_cast<size_t>(r.generations));
    EXPECT_GT(r.totalSeconds(), 0.0);
    EXPECT_GT(r.modeled.seconds(e3_phase::evaluate), 0.0);
    // Cumulative time is monotone along the trace.
    for (size_t i = 1; i < r.trace.size(); ++i)
        EXPECT_GE(r.trace[i].cumulativeSeconds,
                  r.trace[i - 1].cumulativeSeconds);
}

TEST(Platform, BackendsAgreeFunctionally)
{
    // Identical seeds -> identical evolution; only modeled time moves.
    const RunResult cpu =
        E3Platform(smallConfig("cartpole"),
                   std::make_unique<CpuBackend>())
            .run();
    const RunResult gpu =
        E3Platform(smallConfig("cartpole"),
                   std::make_unique<GpuBackend>())
            .run();
    const RunResult inax =
        E3Platform(smallConfig("cartpole"),
                   std::make_unique<InaxBackend>(
                       InaxConfig::paperDefault(1)))
            .run();

    EXPECT_EQ(cpu.generations, gpu.generations);
    EXPECT_EQ(cpu.generations, inax.generations);
    EXPECT_DOUBLE_EQ(cpu.bestFitness, gpu.bestFitness);
    EXPECT_DOUBLE_EQ(cpu.bestFitness, inax.bestFitness);
    for (size_t g = 0; g < cpu.trace.size(); ++g) {
        EXPECT_DOUBLE_EQ(cpu.trace[g].bestFitness,
                         inax.trace[g].bestFitness);
    }
}

TEST(Platform, InaxIsFasterAndGpuSlower)
{
    const RunResult cpu =
        E3Platform(smallConfig("mountain_car"),
                   std::make_unique<CpuBackend>())
            .run();
    const RunResult gpu =
        E3Platform(smallConfig("mountain_car"),
                   std::make_unique<GpuBackend>())
            .run();
    const RunResult inax =
        E3Platform(smallConfig("mountain_car"),
                   std::make_unique<InaxBackend>(
                       InaxConfig::paperDefault(3)))
            .run();
    EXPECT_LT(inax.totalSeconds(), cpu.totalSeconds());
    EXPECT_GT(gpu.totalSeconds(), cpu.totalSeconds());
    EXPECT_GT(inax.inaxReport.totalCycles(), 0u);
}

TEST(Platform, EnergyAttributionFollowsBackend)
{
    const RunResult cpu =
        E3Platform(smallConfig("cartpole"),
                   std::make_unique<CpuBackend>())
            .run();
    EXPECT_GT(cpu.energyInput.cpuSeconds, 0.0);
    EXPECT_DOUBLE_EQ(cpu.energyInput.fpgaSeconds, 0.0);

    const RunResult inax =
        E3Platform(smallConfig("cartpole"),
                   std::make_unique<InaxBackend>(
                       InaxConfig::paperDefault(1)))
            .run();
    EXPECT_GT(inax.energyInput.fpgaSeconds, 0.0);
}

TEST(Platform, ModeledBudgetStopsRun)
{
    PlatformConfig cfg = smallConfig("mountain_car");
    cfg.maxGenerations = 100;
    cfg.modeledSecondsBudget = 1e-6; // absurdly tight
    const RunResult r =
        E3Platform(cfg, std::make_unique<CpuBackend>()).run();
    EXPECT_EQ(r.generations, 1);
    EXPECT_FALSE(r.solved);
}

TEST(Platform, MultiEpisodeEvaluationAveragesFitness)
{
    PlatformConfig cfg = smallConfig("cartpole");
    cfg.episodesPerEval = 3;
    const RunResult r =
        E3Platform(cfg, std::make_unique<CpuBackend>()).run();
    EXPECT_GE(r.generations, 1);
    EXPECT_GT(r.totalSeconds(), 0.0);
}

TEST(Experiment, RunExperimentWiring)
{
    ExperimentOptions opt;
    opt.populationSize = 20;
    opt.maxGenerations = 3;
    const RunResult r =
        runExperiment("pendulum", BackendKind::Inax, opt);
    EXPECT_EQ(r.backendName, "E3-INAX");
    EXPECT_EQ(r.envName, "pendulum");
    EXPECT_LE(r.generations, 3);
}

TEST(Experiment, BackendNames)
{
    EXPECT_EQ(backendKindName(BackendKind::Cpu), "E3-CPU");
    EXPECT_EQ(backendKindName(BackendKind::Gpu), "E3-GPU");
    EXPECT_EQ(backendKindName(BackendKind::Inax), "E3-INAX");
}

TEST(Platform, QuantizedDeploymentStillLearns)
{
    // Evolution with inference running through the Q7.8 fixed-point
    // evaluator (the accelerator's datapath view) must still solve
    // cartpole: the controllers selected are quantization-robust by
    // construction.
    PlatformConfig cfg = smallConfig("cartpole");
    cfg.populationSize = 100;
    cfg.maxGenerations = 25;
    cfg.quantization = FixedPointFormat{16, 8};
    const RunResult r =
        E3Platform(cfg, std::make_unique<CpuBackend>()).run();
    EXPECT_TRUE(r.solved);
}

TEST(Platform, VerifyGateCertifiesQuantizedPlans)
{
    // A quantized population compiles to a plan like any other, so the
    // --verify gate certifies it (E3V306 against quantizeDef's
    // parameters) and a sound run reports nothing.
    PlatformConfig cfg = smallConfig("cartpole");
    cfg.maxGenerations = 5;
    cfg.quantization = FixedPointFormat{16, 8};
    cfg.verifyGenomes = true;
    const RunResult r =
        E3Platform(cfg, std::make_unique<CpuBackend>()).run();
    EXPECT_TRUE(r.verifyReport.empty())
        << verify::formatText(r.verifyReport);
}

TEST(Platform, QuantizationChangesFunctionalTrajectory)
{
    // Coarse quantization perturbs decisions, so the evolution trace
    // diverges from the float run (same seed) — evidence the quantized
    // path is actually exercised.
    PlatformConfig cfg = smallConfig("pendulum");
    cfg.maxGenerations = 3;
    const RunResult floatRun =
        E3Platform(cfg, std::make_unique<CpuBackend>()).run();
    cfg.quantization = FixedPointFormat{6, 3};
    const RunResult quantRun =
        E3Platform(cfg, std::make_unique<CpuBackend>()).run();
    bool anyDiffers = false;
    for (size_t g = 0;
         g < std::min(floatRun.trace.size(), quantRun.trace.size());
         ++g) {
        anyDiffers |= floatRun.trace[g].meanFitness !=
                      quantRun.trace[g].meanFitness;
    }
    EXPECT_TRUE(anyDiffers);
}

TEST(Experiment, EvolvedPopulationShapes)
{
    const auto defs = evolvedPopulation("cartpole", 3, 20, 5);
    EXPECT_EQ(defs.size(), 20u);
    for (const auto &def : defs) {
        EXPECT_EQ(def.inputIds.size(), 4u);
        EXPECT_EQ(def.outputIds.size(), 1u);
    }
}

TEST(Experiment, EvolvedChampionIsTheRunChampion)
{
    // The workload helper evolves through the platform's own loop, so
    // it returns exactly the champion runExperiment reports.
    ExperimentOptions opt;
    opt.seed = 4;
    opt.populationSize = 30;
    opt.maxGenerations = 6;
    const RunResult run =
        runExperiment("acrobot", BackendKind::Cpu, opt);
    ASSERT_TRUE(run.champion);
    EXPECT_EQ(genomeToString(evolvedChampion("acrobot", 6, 30, 4)),
              genomeToString(*run.champion));
}

TEST(Experiment, NeatConfigFileMayRestateButNotChangeTheRunShape)
{
    ExperimentOptions opt;
    opt.populationSize = 20;
    opt.maxGenerations = 2;
    const EnvSpec &spec = envSpec("cartpole");
    NeatConfig cfg = NeatConfig::forTask(spec.numInputs, spec.numOutputs,
                                         spec.requiredFitness);
    cfg.populationSize = opt.populationSize;
    opt.neatConfigPath = ::testing::TempDir() + "e3_experiment_shape.ini";

    // The writer's own output for this run loads.
    std::ofstream(*opt.neatConfigPath) << neatConfigToIni(cfg);
    EXPECT_TRUE(runExperiment("cartpole", "cpu", opt).ok());

    const struct
    {
        const char *text;
        const char *expected;
    } conflicts[] = {
        {"[NEAT]\npop_size = 30\n",
         "[NEAT] pop_size = 30 conflicts with the run's value 20"},
        {"[DefaultGenome]\nnum_inputs = 3\n",
         "[DefaultGenome] num_inputs = 3 conflicts with the run's value 4"},
        {"[DefaultGenome]\nnum_outputs = 2\n",
         "[DefaultGenome] num_outputs = 2 conflicts with the run's value 1"},
    };
    for (const auto &c : conflicts) {
        std::ofstream(*opt.neatConfigPath) << c.text;
        const Result<RunResult> run = runExperiment("cartpole", "cpu", opt);
        ASSERT_FALSE(run.ok()) << c.text;
        EXPECT_NE(run.message().find(c.expected), std::string::npos)
            << run.message();
    }
}

} // namespace
} // namespace e3
