/**
 * @file
 * The NEAT population driver: owns the genomes, species set, innovation
 * tracker and RNG, and exposes the evaluate/evolve cycle of the paper's
 * Fig. 1(a). Evaluation is external — a backend (software, INAX model,
 * GPU model) assigns fitness to every genome, then advance() performs
 * one "evolve" step.
 */

#ifndef E3_NEAT_POPULATION_HH
#define E3_NEAT_POPULATION_HH

#include <functional>
#include <map>

#include "common/stats.hh"
#include "neat/innovation.hh"
#include "neat/reproduction.hh"
#include "neat/species.hh"
#include "nn/net_stats.hh"

namespace e3 {

/** Per-generation summary used by the convergence/irregularity benches. */
struct GenerationStats
{
    int generation = 0;
    double bestFitness = 0.0;
    double meanFitness = 0.0;
    size_t numSpecies = 0;
    Distribution nodeCounts;    ///< active nodes per individual
    Distribution connCounts;    ///< active connections per individual
    Distribution densities;     ///< paper's density metric
};

/**
 * Complete evolve-loop state of a Population, snapshotted between
 * generations. Restoring it and continuing produces a genome stream
 * bit-identical to the uninterrupted run: genomes, species membership
 * and stagnation history, the innovation and genome-key allocators,
 * and both RNG streams are all captured.
 */
struct PopulationState
{
    int generation = 0;
    RngState rng;              ///< population-level stream
    RngState reproductionRng;  ///< stream driving reproduce()
    int genomesCreated = 0;    ///< genome-key allocator position
    int lastNodeId = 0;        ///< innovation allocator position
    int nextSpeciesId = 1;     ///< species-id allocator position
    std::map<int, Genome> genomes;
    std::map<int, Species> species;
};

/** Population of genomes evolving toward a fitness threshold. */
class Population
{
  public:
    /**
     * Create generation 0 and speciate it.
     * @param cfg validated NEAT configuration
     * @param seed master seed for all evolutionary randomness
     */
    Population(const NeatConfig &cfg, uint64_t seed);

    /**
     * Restore a population from a checkpoint snapshot. Unlike the
     * seeding constructor this consumes no randomness: evolution
     * continues exactly where saveState() left off.
     */
    Population(const NeatConfig &cfg, const PopulationState &state);

    /** Snapshot the complete evolve-loop state (checkpointing). */
    PopulationState saveState() const;

    /** Mutable access for evaluators to assign fitness. */
    std::map<int, Genome> &genomes() { return genomes_; }
    const std::map<int, Genome> &genomes() const { return genomes_; }

    const NeatConfig &config() const { return cfg_; }
    int generation() const { return generation_; }
    const SpeciesSet &speciesSet() const { return species_; }

    /**
     * Evaluate every genome with the callback (assigning fitness), in
     * genome-key order.
     */
    void evaluateAll(
        const std::function<double(const Genome &)> &fitnessFn);

    /** Best genome of the current (evaluated) generation. */
    const Genome &best() const;

    /** True once best().fitness >= cfg.fitnessThreshold. */
    bool solved() const;

    /**
     * One "evolve" step: stagnation, reproduction, speciation.
     * @pre every genome has been evaluated
     * @param summaries optional per-species evaluation summaries
     *        (keyed by species id) precomputed while evaluation was
     *        still draining — see SpeciesEvalSummary; results are
     *        bit-identical with or without them
     */
    void advance(const std::map<int, SpeciesEvalSummary> *summaries =
                     nullptr);

    /** Structural summary of the current generation (Fig. 2/4 data). */
    GenerationStats stats() const;

    /**
     * The same summary from NetStats already computed for this
     * generation, one per genome in genomes() order (CreateNet's).
     */
    GenerationStats stats(const std::vector<NetStats> &netStats) const;

    /**
     * Attach a non-owning observer, notified after evaluateAll() and
     * after advance(). The reporter must outlive the population.
     */
    void addReporter(class Reporter *reporter);

  private:
    std::vector<class Reporter *> reporters_;
    NeatConfig cfg_;
    Rng rng_;
    InnovationTracker innovation_;
    Reproduction reproduction_;
    SpeciesSet species_;
    std::map<int, Genome> genomes_;
    int generation_ = 0;
};

} // namespace e3

#endif // E3_NEAT_POPULATION_HH
