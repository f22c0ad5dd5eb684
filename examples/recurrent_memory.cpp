/**
 * @file
 * Recurrent evolution on a memory task: output the input bit from one
 * tick earlier. A feed-forward network cannot represent this (its
 * output is a function of the current input alone), while a recurrent
 * genome only needs one feedback connection — so the same NEAT engine
 * with feedForward=false finds it quickly. Demonstrates the
 * NeatConfig::feedForward switch and the recurrent compile mode.
 */

#include <cstdio>
#include <vector>

#include "neat/population.hh"
#include "nn/network.hh"

using namespace e3;

namespace {

/** Compile options for synchronous-tick (recurrent) evaluation. */
const NetworkCompileOptions kRecurrent{.recurrent = true, .quantization = {}};

/** Fitness: negative squared error predicting the previous input bit. */
double
delayLineFitness(const Genome &genome, const NeatConfig &cfg,
                 uint64_t seed)
{
    auto net = Network::create(genome.toNetworkDef(cfg), kRecurrent);
    Rng rng(seed);
    double error = 0.0;
    const int ticks = 40;
    double prev = 0.0;
    net.reset();
    for (int t = 0; t < ticks; ++t) {
        const double bit = rng.chance(0.5) ? 1.0 : 0.0;
        const double out = net.activate({bit})[0];
        if (t > 0) {
            const double target = prev;
            error += (out - target) * (out - target);
        }
        prev = bit;
    }
    return -error / (ticks - 1);
}

} // namespace

int
main()
{
    std::printf("Recurrent NEAT: learning a one-tick delay line\n\n");

    NeatConfig cfg = NeatConfig::forTask(1, 1, -0.01);
    cfg.feedForward = false; // allow cycles
    cfg.populationSize = 150;
    cfg.nodeAddProb = 0.15;

    Population pop(cfg, 2024);
    for (int gen = 0; gen < 80; ++gen) {
        pop.evaluateAll([&](const Genome &g) {
            // Two input sequences per evaluation for robustness.
            return (delayLineFitness(g, cfg, 100 + gen) +
                    delayLineFitness(g, cfg, 200 + gen)) /
                   2.0;
        });
        const auto stats = pop.stats();
        if (gen % 10 == 0 || pop.solved()) {
            std::printf("  gen %2d: best %.4f  mean %.4f  "
                        "avg nodes %.1f\n",
                        gen, stats.bestFitness, stats.meanFitness,
                        stats.nodeCounts.mean());
        }
        if (pop.solved())
            break;
        pop.advance();
    }

    const Genome &champion = pop.best();
    std::printf("\nchampion fitness %.4f with %zu node genes / %zu "
                "connection genes\n",
                champion.fitness, champion.size().first,
                champion.size().second);

    // Show the delay line working on an unseen sequence.
    auto net = Network::create(champion.toNetworkDef(cfg), kRecurrent);
    Rng rng(999);
    std::printf("\nunseen sequence (in -> out, expect out(t) ~ "
                "in(t-1)):\n  in:  ");
    std::vector<double> bits;
    for (int t = 0; t < 12; ++t)
        bits.push_back(rng.chance(0.5) ? 1.0 : 0.0);
    for (double b : bits)
        std::printf("%.0f ", b);
    std::printf("\n  out: ");
    net.reset();
    for (double b : bits)
        std::printf("%.0f ", net.activate({b})[0] > 0.5 ? 1.0 : 0.0);
    std::printf("\n");
    return 0;
}
