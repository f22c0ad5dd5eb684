/**
 * @file
 * The verifier's reference layering: a deliberately simple, set-based
 * restatement of neat-python's required_for_output() and
 * feed_forward_layers(), kept independent of the production analysis
 * in nn/layering so the two can check each other. E3V306 derives its
 * expected fold sequence from it; the equivalence tests compare the
 * flat analysis against it.
 */

#ifndef E3_VERIFY_REFERENCE_LAYERING_HH
#define E3_VERIFY_REFERENCE_LAYERING_HH

#include <set>
#include <vector>

#include "nn/network.hh"

namespace e3::verify {

/**
 * Nodes required to compute the outputs: every non-input node from
 * which an output is reachable. Output nodes are always required.
 */
std::set<int> referenceRequiredNodes(const NetworkDef &def);

/**
 * Dependency layers of the required non-input nodes by fixed-point
 * rounds: round k places every unplaced node whose ingress sources
 * are inputs or placed before round k, ids ascending. Connections from
 * unrequired nodes are ignored; ingress-free nodes land in the first
 * layer. Nodes on a cycle are never placed and are left out.
 */
std::vector<std::vector<int>> referenceLayers(const NetworkDef &def);

/** True if every required non-input node gets a layer. */
bool referenceIsAcyclic(const NetworkDef &def);

} // namespace e3::verify

#endif // E3_VERIFY_REFERENCE_LAYERING_HH
