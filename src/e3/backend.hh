/**
 * @file
 * Evaluate-phase backend interface. The E3 platform runs NEAT's
 * functional simulation once; a backend maps each generation's workload
 * trace onto a platform variant's execution-time model — software CPU
 * (E3-CPU), GPU (E3-GPU) or the INAX cycle model (E3-INAX) — and
 * attributes the time to a component for the energy model.
 */

#ifndef E3_E3_BACKEND_HH
#define E3_E3_BACKEND_HH

#include <string>

#include "e3/energy_model.hh"
#include "e3/timing_model.hh"

namespace e3 {

/** Maps generation workloads to evaluate-phase time. */
class EvalBackend
{
  public:
    virtual ~EvalBackend() = default;

    /** Variant name, e.g. "E3-CPU". */
    virtual std::string name() const = 0;

    /**
     * Modeled seconds to run one generation's evaluate on this
     * backend. May accumulate internal reports (e.g. INAX cycles).
     */
    virtual double evaluateSeconds(const GenerationTrace &trace) = 0;

    /** Attribute evaluate time to the right component. */
    virtual void attributeEnergy(double evalSeconds,
                                 EnergyBreakdownInput &energy) const = 0;

    /**
     * Whether functional evaluation runs on the SoA population batch
     * engine (nn/batch_eval). Always true: the platform compiles every
     * plain feed-forward population through it, whatever the backend.
     * Kept for callers that still ask before compiling, such as
     * hostbench/evolve.cc.
     */
    bool batchedFunctionalInference() const { return true; }
};

} // namespace e3

#endif // E3_E3_BACKEND_HH
