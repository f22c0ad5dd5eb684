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
#include "neat/population.hh"

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
    NeatConfig cfg = NeatConfig::forTask(
        spec.numInputs, spec.numOutputs, spec.requiredFitness);
    cfg.populationSize = 150;

    Population pop(cfg, 99);
    const int maxGenerations = 60;
    const int episodesPerEval = 3; // average out lucky spawns
    for (int gen = 0; gen < maxGenerations; ++gen) {
        std::vector<int> keys;
        std::vector<Network> nets;
        for (const auto &[key, genome] : pop.genomes()) {
            keys.push_back(key);
            nets.push_back(Network::create(
                genome.toNetworkDef(cfg)));
        }
        // Evaluate: every individual flies episodesPerEval episodes;
        // fitness is the mean reward.
        std::vector<double> fitness(keys.size(), 0.0);
        for (int e = 0; e < episodesPerEval; ++e) {
            VectorEnv venv(spec, cfg.populationSize,
                           1000 + gen * 10 + e);
            venv.resetAll();
            while (!venv.allDone()) {
                std::vector<Action> actions(venv.size());
                for (size_t i = 0; i < venv.size(); ++i) {
                    actions[i] =
                        venv.done(i)
                            ? Action(spec.numOutputs, 0.0)
                            : decodeAction(
                                  spec, nets[i].activate(
                                            venv.observation(i)));
                }
                venv.stepAll(actions);
            }
            for (size_t i = 0; i < keys.size(); ++i)
                fitness[i] += venv.fitness(i);
        }
        for (size_t i = 0; i < keys.size(); ++i)
            pop.genomes().at(keys[i]).fitness =
                fitness[i] / episodesPerEval;

        const auto stats = pop.stats();
        if (gen % 5 == 0 || pop.solved()) {
            std::printf("  gen %2d: best %7.1f  mean %7.1f  "
                        "avg nodes %.1f  avg conns %.1f\n",
                        gen, stats.bestFitness, stats.meanFitness,
                        stats.nodeCounts.mean(),
                        stats.connCounts.mean());
        }
        if (pop.solved()) {
            std::printf("\nrequired fitness %.0f reached at "
                        "generation %d\n",
                        spec.requiredFitness, gen);
            break;
        }
        if (gen == maxGenerations - 1) {
            std::printf("\ngeneration budget reached; deploying the "
                        "best controller found so far\n");
            break;
        }
        pop.advance();
    }

    const Genome &champion = pop.best();
    std::printf("\nchampion: fitness %.1f, %zu node genes, %zu "
                "connection genes\n",
                champion.fitness, champion.size().first,
                champion.size().second);

    std::printf("verification flights on unseen episodes:\n");
    for (uint64_t seed : {501u, 502u, 503u}) {
        std::printf("  seed %llu: reward %.1f\n",
                    static_cast<unsigned long long>(seed),
                    flyOnce(champion, cfg, seed));
    }
    return 0;
}
