/**
 * @file
 * One front door for turning a NetworkDef into an executable Network.
 *
 * Callers describe *what* they need (recurrent evaluation? the
 * fixed-point deployment view?) and get back the right implementation
 * behind the shared Network interface — no more switching on concrete
 * network types in evaluators, benches or the replay path.
 */

#ifndef E3_NN_COMPILE_HH
#define E3_NN_COMPILE_HH

#include <memory>
#include <optional>

#include "common/result.hh"
#include "nn/quantize.hh"
#include "nn/recurrent.hh"

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
     * Run inference through the fixed-point evaluator at this format —
     * the accelerator's datapath view. Feed-forward only.
     */
    std::optional<FixedPointFormat> quantization;
};

/**
 * Compile a definition into the matching executable form:
 * quantized feed-forward when a format is given, recurrent when
 * requested, plain feed-forward otherwise. A malformed definition
 * (checkDefInvariants), an invalid fixed-point format, or the
 * unsupported recurrent+quantized combination comes back as an error
 * Status — compiling user-supplied genomes never aborts the process.
 */
Result<std::unique_ptr<Network>>
compileNetwork(const NetworkDef &def,
               const NetworkCompileOptions &options = {});

/**
 * Structural invariants every compilable definition must satisfy:
 * unique node ids and connection keys, every output id defined,
 * connection endpoints resolving to inputs or nodes, finite weights
 * and biases, and (unless @p recurrent) acyclicity. Returns the first
 * violation as an error Status. compileNetwork() checks this before
 * handing the def to the evaluators, whose own e3_asserts are
 * narrower; the full verifier (src/verify) reports the same defects
 * as cataloged diagnostics.
 */
Status checkDefInvariants(const NetworkDef &def, bool recurrent = false);

struct DefAnalysis;

/** The same checks, read off an existing analysis of the def. */
Status checkDefInvariants(const DefAnalysis &analysis,
                          bool recurrent = false);

} // namespace e3

#endif // E3_NN_COMPILE_HH
