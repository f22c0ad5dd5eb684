#include "neat/population.hh"

#include "neat/reporter.hh"

#include "common/logging.hh"
#include "obs/trace.hh"

namespace e3 {

Population::Population(const NeatConfig &cfg, uint64_t seed)
    : cfg_(cfg), rng_(seed),
      innovation_(static_cast<int>(cfg.numOutputs + cfg.numHidden)),
      reproduction_(rng_.split())
{
    assertOk(cfg_.validate());
    genomes_ = reproduction_.createNew(cfg_, cfg_.populationSize);
    species_.speciate(genomes_, cfg_, generation_);
}

Population::Population(const NeatConfig &cfg,
                       const PopulationState &state)
    : cfg_(cfg), rng_(0),
      innovation_(static_cast<int>(cfg.numOutputs + cfg.numHidden)),
      reproduction_(Rng(0))
{
    assertOk(cfg_.validate());
    rng_.setState(state.rng);
    innovation_.restore(state.lastNodeId);
    reproduction_.restore(state.reproductionRng, state.genomesCreated);
    species_.restore(state.species, state.nextSpeciesId);
    genomes_ = state.genomes;
    generation_ = state.generation;
}

PopulationState
Population::saveState() const
{
    PopulationState state;
    state.generation = generation_;
    state.rng = rng_.state();
    state.reproductionRng = reproduction_.rngState();
    state.genomesCreated = reproduction_.genomesCreated();
    state.lastNodeId = innovation_.lastNodeId();
    state.nextSpeciesId = species_.nextId();
    state.genomes = genomes_;
    state.species = species_.species();
    return state;
}

void
Population::evaluateAll(
    const std::function<double(const Genome &)> &fitnessFn)
{
    for (auto &[key, genome] : genomes_)
        genome.fitness = fitnessFn(genome);
    for (Reporter *reporter : reporters_)
        reporter->onEvaluated(*this);
}

const Genome &
Population::best() const
{
    const Genome *best = nullptr;
    for (const auto &[key, genome] : genomes_) {
        e3_assert(genome.evaluated(),
                  "best() before genome ", key, " was evaluated");
        if (!best || genome.fitness > best->fitness)
            best = &genome;
    }
    e3_assert(best, "empty population");
    return *best;
}

bool
Population::solved() const
{
    return best().fitness >= cfg_.fitnessThreshold;
}

void
Population::advance(const std::map<int, SpeciesEvalSummary> *summaries)
{
    {
        obs::TraceSpan span("reproduce");
        genomes_ = reproduction_.reproduce(cfg_, species_, genomes_,
                                           generation_, innovation_,
                                           summaries);
    }
    ++generation_;
    {
        obs::TraceSpan span("speciate");
        species_.speciate(genomes_, cfg_, generation_);
    }
    for (Reporter *reporter : reporters_)
        reporter->onAdvanced(*this);
}

void
Population::addReporter(Reporter *reporter)
{
    e3_assert(reporter, "null reporter");
    reporters_.push_back(reporter);
}

GenerationStats
Population::stats() const
{
    std::vector<NetStats> netStats;
    netStats.reserve(genomes_.size());
    for (const auto &[key, genome] : genomes_)
        netStats.push_back(computeNetStats(genome.toNetworkDef(cfg_)));
    return stats(netStats);
}

GenerationStats
Population::stats(const std::vector<NetStats> &netStats) const
{
    e3_assert(netStats.size() == genomes_.size(), "stats for ",
              netStats.size(), " genomes, population holds ",
              genomes_.size());
    GenerationStats gs;
    gs.generation = generation_;
    gs.numSpecies = species_.count();

    double sum = 0.0;
    double best = -1e300;
    size_t i = 0;
    for (const auto &[key, genome] : genomes_) {
        if (genome.evaluated()) {
            sum += genome.fitness;
            best = std::max(best, genome.fitness);
        }
        const NetStats &ns = netStats[i++];
        gs.nodeCounts.add(static_cast<double>(ns.activeNodes));
        gs.connCounts.add(static_cast<double>(ns.activeConnections));
        gs.densities.add(ns.density);
    }
    gs.bestFitness = best;
    gs.meanFitness = sum / static_cast<double>(genomes_.size());
    return gs;
}

} // namespace e3
