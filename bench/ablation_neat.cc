/**
 * @file
 * Ablation: NEAT's algorithmic ingredients. The paper leans on two
 * mechanisms — crossover between elite parents (rate 0.5) and
 * speciation ("it protects the young individuals from elimination
 * before well-evolved"). We switch each off and compare solve rate
 * and generations-to-solve on two structurally non-trivial tasks,
 * over several seeds.
 */

#include <cstdio>
#include <iostream>

#include "common/stats.hh"
#include "common/table.hh"
#include "env/vector_env.hh"
#include "neat/population.hh"

using namespace e3;

namespace {

struct Outcome
{
    int solvedRuns = 0;
    Distribution generations; ///< over solved runs only
};

Outcome
runConfig(const std::string &envName, bool crossover,
          bool speciation, const std::vector<uint64_t> &seeds,
          int maxGenerations)
{
    const EnvSpec &spec = envSpec(envName);
    Outcome outcome;
    for (uint64_t seed : seeds) {
        NeatConfig cfg = NeatConfig::forTask(
            spec.numInputs, spec.numOutputs, spec.requiredFitness);
        cfg.populationSize = 150;
        if (!crossover)
            cfg.crossoverRate = 0.0;
        if (!speciation) {
            // One giant species: nothing is protected.
            cfg.compatibilityThreshold = 1e9;
        }

        Population pop(cfg, seed);
        for (int gen = 0; gen < maxGenerations; ++gen) {
            const size_t n = pop.genomes().size();
            std::vector<int> keys;
            std::vector<Network> nets;
            for (const auto &[key, genome] : pop.genomes()) {
                keys.push_back(key);
                nets.push_back(Network::create(
                    genome.toNetworkDef(cfg)));
            }
            VectorEnv venv(spec, n, seed * 31 + gen);
            venv.resetAll();
            while (!venv.allDone()) {
                std::vector<Action> actions(n);
                for (size_t i = 0; i < n; ++i) {
                    actions[i] =
                        venv.done(i)
                            ? Action(spec.numOutputs, 0.0)
                            : decodeAction(spec,
                                           nets[i].activate(
                                               venv.observation(i)));
                }
                venv.stepAll(actions);
            }
            for (size_t i = 0; i < n; ++i)
                pop.genomes().at(keys[i]).fitness = venv.fitness(i);

            if (pop.solved()) {
                ++outcome.solvedRuns;
                outcome.generations.add(gen);
                break;
            }
            pop.advance();
        }
    }
    return outcome;
}

} // namespace

int
main()
{
    std::cout << "Ablation: NEAT with crossover / speciation switched "
                 "off (5 seeds per cell)\n\n";

    const std::vector<uint64_t> seeds{11, 22, 33, 44, 55};
    const struct
    {
        const char *env;
        int budget;
    } tasks[] = {{"mountain_car", 80}, {"pendulum", 120}};

    TextTable table("Solve statistics");
    table.header({"env", "config", "solved", "mean gens (solved)"});

    int fullSolved = 0;
    int ablatedSolvedWorst = 1 << 20;
    for (const auto &task : tasks) {
        const struct
        {
            const char *name;
            bool crossover, speciation;
        } configs[] = {
            {"full NEAT", true, true},
            {"no crossover", false, true},
            {"no speciation", true, false},
            {"neither", false, false},
        };
        for (const auto &c : configs) {
            const Outcome o =
                runConfig(task.env, c.crossover, c.speciation, seeds,
                          task.budget);
            if (std::string(c.name) == "full NEAT")
                fullSolved += o.solvedRuns;
            else
                ablatedSolvedWorst =
                    std::min(ablatedSolvedWorst, o.solvedRuns);
            table.row(
                {task.env, c.name,
                 TextTable::num(static_cast<long long>(o.solvedRuns)) +
                     "/" +
                     TextTable::num(
                         static_cast<long long>(seeds.size())),
                 o.generations.count() > 0
                     ? TextTable::num(o.generations.mean(), 1)
                     : "-"});
        }
    }
    std::cout << table << '\n';

    std::printf("Shape check: full NEAT solves at least as reliably "
                "as the weakest ablation: %s\n",
                fullSolved >= ablatedSolvedWorst ? "PASS"
                                                 : "DIVERGES");
    return 0;
}
