/**
 * @file
 * What a NetworkDef compiles into, and what every compile checks.
 *
 * Callers describe *what* they need (recurrent evaluation? the
 * fixed-point deployment view?) as NetworkCompileOptions; every
 * compile entry point (Network::create, compileNetwork,
 * compilePopulation, compileReplicated) turns them into the value
 * mode of the one batch engine (nn/batch_eval.hh).
 */

#ifndef E3_NN_COMPILE_HH
#define E3_NN_COMPILE_HH

#include <optional>

#include "common/result.hh"
#include "nn/quantize.hh"

namespace e3 {

/** How a NetworkDef should be compiled for execution. */
struct NetworkCompileOptions
{
    /**
     * Evaluate with synchronous-tick recurrent semantics (required
     * when the genome was evolved with NeatConfig::feedForward off).
     */
    bool recurrent = false;

    /**
     * Store inputs and node values at this fixed-point format — the
     * accelerator's datapath view. Feed-forward only.
     */
    std::optional<FixedPointFormat> quantization;

    /**
     * The options themselves: an invalid fixed-point format, or the
     * unsupported recurrent+quantized combination, as an error Status.
     */
    Status validate() const;
};

/**
 * Structural invariants every compilable definition must satisfy:
 * unique node ids and connection keys, every output id defined,
 * connection endpoints resolving to inputs or nodes, finite weights
 * and biases, and (unless @p recurrent) acyclicity. Returns the first
 * violation as an error Status. compileNetwork() and
 * compilePopulation() check this before building a plan, whose own
 * e3_asserts are narrower; the full verifier (src/verify) reports the
 * same defects as cataloged diagnostics.
 */
Status checkDefInvariants(const NetworkDef &def, bool recurrent = false);

struct DefAnalysis;

/** The same checks, read off an existing analysis of the def. */
Status checkDefInvariants(const DefAnalysis &analysis,
                          bool recurrent = false);

} // namespace e3

#endif // E3_NN_COMPILE_HH
