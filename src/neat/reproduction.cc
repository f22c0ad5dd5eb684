#include "neat/reproduction.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "neat/crossover.hh"
#include "neat/mutation.hh"

namespace e3 {

std::map<int, Genome>
Reproduction::createNew(const NeatConfig &cfg, size_t n)
{
    std::map<int, Genome> population;
    for (size_t i = 0; i < n; ++i) {
        const int key = nextGenomeKey_++;
        Genome g(key);
        g.configureNew(cfg, rng_);
        population.emplace(key, std::move(g));
    }
    return population;
}

SpeciesEvalSummary
Reproduction::summarizeSpecies(
    const std::vector<int> &members,
    const std::function<double(int)> &fitnessOf)
{
    e3_assert(!members.empty(), "cannot summarize an empty species");
    SpeciesEvalSummary summary;
    double sum = 0.0;
    summary.minMemberFitness = std::numeric_limits<double>::infinity();
    summary.maxMemberFitness = -std::numeric_limits<double>::infinity();
    for (int key : members) {
        const double f = fitnessOf(key);
        sum += f;
        summary.minMemberFitness = std::min(summary.minMemberFitness, f);
        summary.maxMemberFitness = std::max(summary.maxMemberFitness, f);
    }
    summary.meanFitness = sum / static_cast<double>(members.size());
    summary.rankedMembers = members;
    std::sort(summary.rankedMembers.begin(),
              summary.rankedMembers.end(), [&](int a, int b) {
                  return fitnessOf(a) > fitnessOf(b);
              });
    return summary;
}

std::map<int, Genome>
Reproduction::reproduce(const NeatConfig &cfg, SpeciesSet &speciesSet,
                        const std::map<int, Genome> &population,
                        int generation, InnovationTracker &innovation,
                        const std::map<int, SpeciesEvalSummary> *summaries)
{
    for (const auto &[key, genome] : population) {
        e3_assert(genome.evaluated(),
                  "genome ", key, " reproduced before evaluation");
    }

    // Summaries may arrive precomputed or be computed here — the same
    // function either way.
    std::map<int, SpeciesEvalSummary> local;
    if (!summaries) {
        for (const auto &[sid, sp] : speciesSet.species()) {
            local.emplace(sid, summarizeSpecies(
                                   sp.members, [&](int key) {
                                       return population.at(key).fitness;
                                   }));
        }
        summaries = &local;
    }
    for (const auto &[sid, sp] : speciesSet.species()) {
        e3_assert(summaries->count(sid),
                  "missing evaluation summary for species ", sid);
    }

    // --- Stagnation (neat-python DefaultStagnation) ---
    struct SpeciesInfo
    {
        int id;
        double fitness;     ///< species fitness = member mean
        double bestEver;
    };
    std::vector<SpeciesInfo> infos;
    for (auto &[sid, sp] : speciesSet.species()) {
        e3_assert(!sp.members.empty(), "species ", sid, " is empty");
        const double mean = summaries->at(sid).meanFitness;

        const auto prevBest = sp.bestHistoricalFitness();
        if (!prevBest || mean > *prevBest)
            sp.lastImproved = generation;
        sp.fitnessHistory.push_back(mean);
        infos.push_back({sid, mean, sp.bestHistoricalFitness().value()});
    }

    // Cull stagnant species, sparing the speciesElitism fittest.
    std::sort(infos.begin(), infos.end(),
              [](const SpeciesInfo &a, const SpeciesInfo &b) {
                  return a.bestEver > b.bestEver;
              });
    for (size_t rank = 0; rank < infos.size(); ++rank) {
        if (rank < cfg.speciesElitism)
            continue;
        const Species &sp = speciesSet.species().at(infos[rank].id);
        const int idle = generation - sp.lastImproved;
        if (idle > static_cast<int>(cfg.maxStagnation))
            speciesSet.remove(infos[rank].id);
    }

    if (speciesSet.species().empty()) {
        warn("all species went extinct; restarting from scratch");
        return createNew(cfg, cfg.populationSize);
    }

    // --- Adjusted fitness (fitness sharing across species) ---
    double minFit = std::numeric_limits<double>::infinity();
    double maxFit = -std::numeric_limits<double>::infinity();
    for (const auto &[sid, sp] : speciesSet.species()) {
        const SpeciesEvalSummary &summary = summaries->at(sid);
        minFit = std::min(minFit, summary.minMemberFitness);
        maxFit = std::max(maxFit, summary.maxMemberFitness);
    }
    const double span = std::max(maxFit - minFit, 1.0);

    double adjustedSum = 0.0;
    for (auto &[sid, sp] : speciesSet.species()) {
        sp.adjustedFitness =
            (summaries->at(sid).meanFitness - minFit) / span;
        adjustedSum += sp.adjustedFitness;
    }

    // --- Offspring apportionment ---
    std::vector<int> sids;
    for (const auto &[sid, sp] : speciesSet.species())
        sids.push_back(sid);

    const size_t minSize = std::max<size_t>(cfg.minSpeciesSize,
                                            cfg.elitism);
    std::map<int, size_t> spawn;
    size_t total = 0;
    for (int sid : sids) {
        const Species &sp = speciesSet.species().at(sid);
        double share =
            adjustedSum > 0.0
                ? sp.adjustedFitness / adjustedSum
                : 1.0 / static_cast<double>(sids.size());
        size_t count = static_cast<size_t>(std::lround(
            share * static_cast<double>(cfg.populationSize)));
        count = std::max(count, minSize);
        spawn[sid] = count;
        total += count;
    }
    // Trim/pad to the exact population size: first shrink the largest
    // allocations down to the species floor, then — if many tiny
    // species still overflow the budget — starve the least-fit species
    // entirely. Without the hard cap the population would compound
    // across generations.
    while (total > cfg.populationSize) {
        auto it = std::max_element(
            spawn.begin(), spawn.end(),
            [](const auto &a, const auto &b) {
                return a.second < b.second;
            });
        if (it->second > minSize) {
            --it->second;
            --total;
            continue;
        }
        // Everyone is at the floor: drop offspring from the least-fit
        // species that still has any.
        auto worst = spawn.end();
        for (auto sit = spawn.begin(); sit != spawn.end(); ++sit) {
            if (sit->second == 0)
                continue;
            if (worst == spawn.end() ||
                speciesSet.species().at(sit->first).adjustedFitness <
                    speciesSet.species().at(worst->first).adjustedFitness)
                worst = sit;
        }
        e3_assert(worst != spawn.end(), "no spawn left to trim");
        --worst->second;
        --total;
    }
    while (total < cfg.populationSize) {
        auto it = std::max_element(
            spawn.begin(), spawn.end(),
            [&](const auto &a, const auto &b) {
                return speciesSet.species().at(a.first).adjustedFitness <
                       speciesSet.species().at(b.first).adjustedFitness;
            });
        ++it->second;
        ++total;
    }

    // --- Per-species reproduction ---
    std::map<int, Genome> next;
    for (int sid : sids) {
        size_t toSpawn = spawn.at(sid);

        // Members best-first (precomputed by summarizeSpecies).
        std::vector<int> ranked = summaries->at(sid).rankedMembers;

        // Elites survive verbatim.
        for (size_t e = 0; e < cfg.elitism && e < ranked.size() &&
                           toSpawn > 0;
             ++e) {
            const Genome &elite = population.at(ranked[e]);
            Genome copy = elite; // keeps fitness; re-evaluated anyway
            next.emplace(copy.key(), std::move(copy));
            --toSpawn;
        }

        // Parent pool: the top survivalThreshold fraction (>= 1).
        const size_t cutoff = std::max<size_t>(
            1, static_cast<size_t>(std::ceil(
                   cfg.survivalThreshold *
                   static_cast<double>(ranked.size()))));
        ranked.resize(std::min(cutoff, ranked.size()));

        while (toSpawn > 0) {
            const int p1 = ranked[rng_.uniformInt(ranked.size())];
            const int p2 = ranked[rng_.uniformInt(ranked.size())];
            const int childKey = nextGenomeKey_++;

            Genome child(childKey);
            if (p1 != p2 && rng_.chance(cfg.crossoverRate)) {
                child = crossoverGenomes(childKey, population.at(p1),
                                         population.at(p2), rng_);
            } else {
                // Asexual: clone the parent's genes under a fresh key.
                child.nodes = population.at(p1).nodes;
                child.conns = population.at(p1).conns;
            }
            mutateGenome(child, cfg, rng_, innovation);
            child.fitness = std::numeric_limits<double>::quiet_NaN();
            next.emplace(childKey, std::move(child));
            --toSpawn;
        }
    }
    return next;
}

} // namespace e3
