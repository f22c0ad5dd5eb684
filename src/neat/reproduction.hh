/**
 * @file
 * Reproduction ("Evolve" in the paper's Table III): stagnation culling,
 * fitness sharing via species-level adjusted fitness, elitism, parent
 * selection under a survival threshold, and offspring creation through
 * crossover and mutation — following neat-python's DefaultReproduction
 * and DefaultStagnation.
 */

#ifndef E3_NEAT_REPRODUCTION_HH
#define E3_NEAT_REPRODUCTION_HH

#include <map>

#include <functional>

#include "neat/innovation.hh"
#include "neat/species.hh"

namespace e3 {

/**
 * The fitness-dependent but RNG-free prefix of "evolve" for one
 * species: everything reproduce() needs that can be computed the
 * moment the species' own members finish evaluating. A caller may
 * supply them precomputed (hostbench's evolve driver does);
 * reproduce() computes identical summaries inline when none are
 * supplied, so both paths are bit-identical.
 */
struct SpeciesEvalSummary
{
    double meanFitness = 0.0;      ///< species fitness (member mean)
    double minMemberFitness = 0.0; ///< lowest member fitness
    double maxMemberFitness = 0.0; ///< highest member fitness
    std::vector<int> rankedMembers; ///< member keys, best-first
};

/** Creates generation zero and every subsequent generation. */
class Reproduction
{
  public:
    explicit Reproduction(Rng rng) : rng_(rng) {}

    /**
     * Summarize one species' evaluation results. Pure: depends only on
     * the member list and their fitnesses, so it may run on any thread
     * at any time after those members are final.
     */
    static SpeciesEvalSummary
    summarizeSpecies(const std::vector<int> &members,
                     const std::function<double(int)> &fitnessOf);

    /** Fresh random population of n genomes. */
    std::map<int, Genome> createNew(const NeatConfig &cfg, size_t n);

    /**
     * Produce the next generation from the current speciated, evaluated
     * population.
     *
     * Steps: (1) cull species stagnant for cfg.maxStagnation
     * generations, sparing the cfg.speciesElitism best; (2) compute each
     * surviving species' adjusted fitness (member-mean, min-max
     * normalized across species); (3) apportion offspring proportional
     * to adjusted fitness with a cfg.minSpeciesSize floor; (4) per
     * species, copy cfg.elitism best members verbatim, truncate parents
     * to the cfg.survivalThreshold fraction, and fill the remainder with
     * mutated crossover/clone children.
     *
     * @param population current generation (all genomes evaluated)
     * @param summaries optional precomputed per-species evaluation
     *        summaries keyed by species id (one per current species);
     *        when null they are computed inline via summarizeSpecies()
     *        — the result is bit-identical either way
     * @return the next generation's genomes
     */
    std::map<int, Genome>
    reproduce(const NeatConfig &cfg, SpeciesSet &speciesSet,
              const std::map<int, Genome> &population, int generation,
              InnovationTracker &innovation,
              const std::map<int, SpeciesEvalSummary> *summaries =
                  nullptr);

    /** Number of genome keys handed out so far. */
    int genomesCreated() const { return nextGenomeKey_; }

    /** Snapshot the reproduction RNG stream (checkpoint state). */
    RngState rngState() const { return rng_.state(); }

    /** Resume the RNG stream and key allocator (checkpoint restore). */
    void
    restore(const RngState &rng, int genomesCreated)
    {
        rng_.setState(rng);
        nextGenomeKey_ = genomesCreated;
    }

  private:
    int nextGenomeKey_ = 0;
    Rng rng_;
};

} // namespace e3

#endif // E3_NEAT_REPRODUCTION_HH
