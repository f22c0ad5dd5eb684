/**
 * @file
 * Model-replacement scenario (paper Sec. I): an autonomous agent is
 * deployed with *no* trained model for its task and must learn one on
 * device. Here the task is lunar landing: evolution starts from bare
 * input->output genomes, grows topology as needed, and we watch both
 * the learning curve and the structural growth of the population —
 * then demonstrate the evolved champion flying a fresh episode.
 */

#include <cstdio>

#include "e3/experiment.hh"
#include "env/env_registry.hh"

using namespace e3;

namespace {

/** Fly one episode with a decoded genome; returns the episode reward. */
double
flyOnce(const Genome &genome, const NeatConfig &cfg, uint64_t seed)
{
    const EnvSpec &spec = envSpec("lunar_lander");
    auto net = Network::create(genome.toNetworkDef(cfg));
    auto env = spec.make();
    Rng rng(seed);
    Observation obs = env->reset(rng);
    double total = 0.0;
    for (int t = 0; t < env->maxEpisodeSteps(); ++t) {
        const auto action = decodeAction(spec, net.activate(obs));
        const StepResult r = env->step(action);
        obs = r.observation;
        total += r.reward;
        if (r.done)
            break;
    }
    return total;
}

} // namespace

int
main()
{
    std::printf("Model replacement: learning to land from scratch on "
                "the deployed device\n\n");

    const EnvSpec &spec = envSpec("lunar_lander");
    ExperimentOptions options;
    options.seed = 99;
    options.populationSize = 150;
    options.maxGenerations = 60;
    options.episodesPerEval = 3; // average out lucky spawns
    const RunResult run =
        runExperiment("lunar_lander", BackendKind::Cpu, options);

    for (const GenerationPoint &p : run.trace) {
        if (p.generation % 5 == 0 || p.generation + 1 == run.generations) {
            std::printf("  gen %2d: best %7.1f  mean %7.1f  "
                        "avg nodes %.1f  avg conns %.1f\n",
                        p.generation, p.bestFitness, p.meanFitness,
                        p.meanNodes, p.meanConnections);
        }
    }
    if (run.solved) {
        std::printf("\nrequired fitness %.0f reached at generation %d\n",
                    spec.requiredFitness, run.generations - 1);
    } else {
        std::printf("\ngeneration budget reached; deploying the best "
                    "controller found so far\n");
    }

    const Genome &champion = *run.champion;
    std::printf("\nchampion: fitness %.1f, %zu node genes, %zu "
                "connection genes\n",
                champion.fitness, champion.size().first,
                champion.size().second);

    const NeatConfig cfg = NeatConfig::forTask(
        spec.numInputs, spec.numOutputs, spec.requiredFitness);
    std::printf("verification flights on unseen episodes:\n");
    for (uint64_t seed : {501u, 502u, 503u}) {
        std::printf("  seed %llu: reward %.1f\n",
                    static_cast<unsigned long long>(seed),
                    flyOnce(champion, cfg, seed));
    }
    return 0;
}
