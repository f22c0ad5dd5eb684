/**
 * @file
 * Structural genome/network verification (E3V0xx rules).
 *
 * Checks artifacts at two levels: raw genomes (all genes, enabled or
 * not — what serialize and checkpoints carry) and decoded NetworkDefs
 * (what CreateNet compiles). Both produce typed diagnostics with gene
 * loci instead of tripping the compiler's e3_assert panics, so a
 * malformed artifact degrades to a report.
 */

#ifndef E3_VERIFY_STRUCTURAL_HH
#define E3_VERIFY_STRUCTURAL_HH

#include <cstddef>

#include "neat/genome.hh"
#include "nn/network.hh"
#include "verify/diagnostics.hh"

namespace e3::verify {

/**
 * The execution interface a genome is verified against. numInputs /
 * numOutputs of 0 mean "unknown": interface-dependent checks (missing
 * outputs E3V003, input range E3V009) are skipped. feedForward gates
 * the acyclicity/self-loop rules.
 */
struct GenomeInterface
{
    size_t numInputs = 0;
    size_t numOutputs = 0;
    bool feedForward = true;

    /**
     * Interface-agnostic verification (recurrent-tolerant, unknown
     * shape) — what checkpoint load uses, where the config may not
     * describe every stored genome.
     */
    static GenomeInterface lenient() { return {0, 0, false}; }
};

/**
 * Verify a genome's gene-level invariants: connection endpoints
 * (E3V001/E3V002/E3V009, over *all* genes including disabled ones),
 * finite parameters (E3V007), interface output coverage (E3V003),
 * feed-forward self-loops (E3V005) and acyclicity over enabled genes
 * (E3V004), and enabled-path output reachability (E3V008, warning).
 */
Report verifyGenome(const Genome &genome, const GenomeInterface &iface);

/**
 * Verify a decoded NetworkDef before compilation: duplicates (E3V006),
 * output coverage (E3V003), endpoints (E3V001/E3V002), finite
 * parameters (E3V007), self-loops/acyclicity when @p feedForward, and
 * pruned-node warnings (E3V008). A def with no errors is safe to
 * compile (compileNetwork, compilePopulation) — in the recurrent mode
 * when @p feedForward is false.
 */
Report verifyNetworkDef(const NetworkDef &def, bool feedForward = true);

} // namespace e3::verify

#endif // E3_VERIFY_STRUCTURAL_HH
