/**
 * @file
 * Batch-plan soundness (E3V301–E3V306).
 *
 * Certifies a compiled BatchPlan — the SoA program
 * compilePopulation()/compileReplicated() hand to the evaluator — as
 * diagnostics instead of fatals: every op and node index inside its
 * lane's slot range and the shared arrays (E3V301), per-lane segments
 * exactly partitioning the node list in execution order (E3V302),
 * per-lane value-arena regions pairwise disjoint so concurrent lane
 * activation cannot race (E3V303), every segment's (activation,
 * aggregation) inside the dispatch table (E3V304), each lane's output
 * map injective over in-range slots (E3V305), and — when the source
 * definitions are supplied — the whole op/node/segment stream
 * bit-identical to the plan the verifier's own reference layering
 * (verify/reference_layering.hh) prescribes, so fold order and with it
 * every intermediate rounding is proven unchanged (E3V306) by code
 * independent of the compiler under test.
 *
 * Plans also round-trip through a line-oriented text form (doubles at
 * full %.17g precision), which is how the seeded-corrupt fixtures
 * under tests/fixtures/verify/ reach `e3_cli verify --batch --plan`.
 */

#ifndef E3_VERIFY_BATCH_CHECK_HH
#define E3_VERIFY_BATCH_CHECK_HH

#include <string>
#include <vector>

#include "nn/batch_eval.hh"
#include "verify/diagnostics.hh"

namespace e3::verify {

/**
 * Structural soundness of one plan (E3V301–E3V305): every finding the
 * activation loops would otherwise turn into out-of-bounds reads,
 * silent dispatch fall-through, or cross-lane races.
 */
Report verifyBatchPlanStructure(const BatchPlan &plan);

/**
 * Fold-order equivalence (E3V306): derive the expected plan for @p defs
 * from the reference layering and require the plan's op/node/segment/
 * output streams to match bit for bit. @p defs is the population in
 * lane order; a single def with a multi-lane plan is treated as a
 * replicated compile. A def with structural errors (verifyNetworkDef)
 * is itself reported as E3V306.
 */
Report verifyBatchPlanFold(const BatchPlan &plan,
                           const std::vector<NetworkDef> &defs);

/**
 * The full pass: structure always, fold equivalence when @p defs is
 * non-empty. The fold check is skipped (not failed) on a structurally
 * broken plan — its indices cannot be trusted enough to compare.
 */
Report verifyBatchPlan(const BatchPlan &plan,
                       const std::vector<NetworkDef> &defs = {});

/** Serialize @p plan to the line-oriented text form. */
std::string batchPlanToText(const BatchPlan &plan);

/** Parse batchPlanToText() output; a tagged error on malformed text. */
Result<BatchPlan> batchPlanFromText(const std::string &text);

} // namespace e3::verify

#endif // E3_VERIFY_BATCH_CHECK_HH
