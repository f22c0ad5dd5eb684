#include "neat/species.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace e3 {

std::optional<double>
Species::bestHistoricalFitness() const
{
    if (fitnessHistory.empty())
        return std::nullopt;
    return *std::max_element(fitnessHistory.begin(),
                             fitnessHistory.end());
}

void
SpeciesSet::speciate(const std::map<int, Genome> &population,
                     const NeatConfig &cfg, int generation)
{
    e3_assert(!population.empty(), "cannot speciate an empty population");

    std::vector<int> unspeciated;
    for (const auto &[key, genome] : population)
        unspeciated.push_back(key);

    // Phase 1: each existing species adopts the closest unspeciated
    // genome to its previous representative.
    std::map<int, int> newRepresentative; // species id -> genome key
    for (auto &[sid, sp] : species_) {
        double bestDist = std::numeric_limits<double>::infinity();
        int bestKey = -1;
        for (int key : unspeciated) {
            const double d =
                sp.representative.distance(population.at(key), cfg);
            if (d < bestDist) {
                bestDist = d;
                bestKey = key;
            }
        }
        if (bestKey < 0)
            continue; // population exhausted by earlier species
        newRepresentative[sid] = bestKey;
        unspeciated.erase(std::find(unspeciated.begin(),
                                    unspeciated.end(), bestKey));
    }

    // Reset membership; drop species that found no representative.
    for (auto it = species_.begin(); it != species_.end();) {
        auto found = newRepresentative.find(it->first);
        if (found == newRepresentative.end()) {
            it = species_.erase(it);
        } else {
            it->second.representative = population.at(found->second);
            it->second.members = {found->second};
            ++it;
        }
    }

    // Phase 2: assign every remaining genome to the closest compatible
    // species, founding new species as needed.
    for (int key : unspeciated) {
        const Genome &genome = population.at(key);
        double bestDist = std::numeric_limits<double>::infinity();
        Species *best = nullptr;
        for (auto &[sid, sp] : species_) {
            const double d = sp.representative.distance(genome, cfg);
            if (d < cfg.compatibilityThreshold && d < bestDist) {
                bestDist = d;
                best = &sp;
            }
        }
        if (best) {
            best->members.push_back(key);
        } else {
            const int sid = nextId_++;
            species_.emplace(sid, Species(sid, generation, genome));
            species_.at(sid).members = {key};
        }
    }
}

void
SpeciesSet::remove(int speciesId)
{
    species_.erase(speciesId);
}

int
SpeciesSet::speciesOf(int genomeKey) const
{
    for (const auto &[sid, sp] : species_) {
        if (std::find(sp.members.begin(), sp.members.end(), genomeKey) !=
            sp.members.end())
            return sid;
    }
    return -1;
}

} // namespace e3
