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
#include "e3/cpu_backend.hh"
#include "e3/platform.hh"

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
    Outcome outcome;
    for (uint64_t seed : seeds) {
        PlatformConfig cfg;
        cfg.envName = envName;
        cfg.seed = seed;
        cfg.populationSize = 150;
        cfg.maxGenerations = maxGenerations;
        E3Platform platform(cfg, std::make_unique<CpuBackend>());
        if (!crossover)
            platform.neatConfig().crossoverRate = 0.0;
        if (!speciation) {
            // One giant species: nothing is protected.
            platform.neatConfig().compatibilityThreshold = 1e9;
        }
        const RunResult run = platform.run();
        if (run.solved) {
            ++outcome.solvedRuns;
            outcome.generations.add(run.generations);
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
