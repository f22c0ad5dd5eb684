/**
 * @file
 * A batch of independent environment instances, one lane per
 * individual.
 *
 * E3 evaluates a whole population per generation: one environment per
 * individual, each terminating on its own schedule ("some bad
 * performance individuals can fail, terminate early, and stay idle
 * while the other populations are still running" — paper Sec. V-B).
 * VectorEnv tracks per-lane episode state so both the software
 * baseline and the INAX model see identical episode-length variance;
 * the evaluation runtime (runtime/parallel_eval) steps its lanes.
 */

#ifndef E3_ENV_VECTOR_ENV_HH
#define E3_ENV_VECTOR_ENV_HH

#include <memory>
#include <vector>

#include "env/env_registry.hh"
#include "env/environment.hh"

namespace e3 {

/** Batch of environments of one kind, stepped lane by lane. */
class VectorEnv
{
  public:
    /**
     * @param spec environment kind for every lane
     * @param lanes number of parallel episodes (population size)
     * @param seed master seed; each lane derives an independent stream
     */
    VectorEnv(const EnvSpec &spec, size_t lanes, uint64_t seed);

    /**
     * Restart one lane's episode. Lanes are fully independent — each
     * owns its environment and RNG stream — so distinct lanes may be
     * reset and stepped concurrently from different threads, in any
     * interleaving, with bit-identical episodes.
     */
    void resetLane(size_t lane);

    /**
     * Step one live lane, writing the next observation into the
     * lane's own buffer (no allocation). @pre !done(lane).
     * @param action spec().actionSize() elements
     * @return true once the lane's episode has ended
     */
    [[nodiscard]] bool stepLane(size_t lane, const double *action);

    size_t size() const { return lanes_.size(); }
    const EnvSpec &spec() const { return spec_; }

    /**
     * Latest observation of a lane (valid while the lane is live). The
     * buffer is the lane's own, sized once at construction and
     * overwritten in place by every reset and step.
     */
    const Observation &observation(size_t lane) const;

    /** Whether a lane's episode has ended (terminated or truncated). */
    bool done(size_t lane) const;

    /** Cumulative episode reward of a lane. */
    double fitness(size_t lane) const;

    /** Steps taken in the lane's current episode. */
    int steps(size_t lane) const;

    /**
     * Determinism-sentinel digest of one lane's RNG stream: raw draws
     * consumed and an FNV-1a hash of the exact sequence. Two runs
     * replayed identical lane randomness iff the digests are equal —
     * the hook the runtime's auditDeterminism() cross-check folds
     * over.
     */
    const RngAudit &laneAudit(size_t lane) const;

  private:
    struct Lane
    {
        std::unique_ptr<Environment> env;
        Rng rng;
        Observation observation;
        double fitness = 0.0;
        int steps = 0;
        bool done = true;

        Lane(std::unique_ptr<Environment> e, Rng r, size_t obsSize)
            : env(std::move(e)), rng(r), observation(obsSize)
        {
        }
    };

    EnvSpec spec_;
    std::vector<Lane> lanes_;
};

} // namespace e3

#endif // E3_ENV_VECTOR_ENV_HH
