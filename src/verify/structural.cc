#include "verify/structural.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "verify/reference_layering.hh"

namespace e3::verify {

namespace {

std::string
connLocus(int from, int to)
{
    return "conn " + std::to_string(from) + "->" + std::to_string(to);
}

std::string
nodeLocus(int id)
{
    return "node " + std::to_string(id);
}

std::string
joinIds(const std::vector<int> &ids)
{
    std::ostringstream oss;
    for (size_t i = 0; i < ids.size(); ++i) {
        if (i)
            oss << ',';
        oss << ids[i];
    }
    return oss.str();
}

/**
 * Node ids from which an output in [0, numOutputs) is reachable over
 * enabled connections (plus the outputs themselves). Mirrors
 * referenceRequiredNodes() but over a genome's gene maps.
 */
std::set<int>
genomeReachable(const Genome &genome, size_t numOutputs)
{
    std::map<int, std::vector<int>> reverse; // to -> sources
    for (const auto &[key, gene] : genome.conns) {
        if (!gene.enabled)
            continue;
        reverse[key.second].push_back(key.first);
    }
    std::set<int> reachable;
    std::deque<int> frontier;
    for (size_t o = 0; o < numOutputs; ++o) {
        int id = static_cast<int>(o);
        if (genome.nodes.count(id)) {
            reachable.insert(id);
            frontier.push_back(id);
        }
    }
    while (!frontier.empty()) {
        int id = frontier.front();
        frontier.pop_front();
        auto it = reverse.find(id);
        if (it == reverse.end())
            continue;
        for (int src : it->second) {
            if (src < 0 || !genome.nodes.count(src))
                continue;
            if (reachable.insert(src).second)
                frontier.push_back(src);
        }
    }
    return reachable;
}

/**
 * Kahn's algorithm over enabled node->node edges restricted to
 * @p scope; returns the (sorted) ids left on a cycle, empty if acyclic.
 */
std::vector<int>
genomeCycle(const Genome &genome, const std::set<int> &scope)
{
    std::map<int, std::vector<int>> adj;
    std::map<int, int> indegree;
    for (int id : scope)
        indegree[id] = 0;
    for (const auto &[key, gene] : genome.conns) {
        if (!gene.enabled || key.first == key.second)
            continue;
        if (!scope.count(key.first) || !scope.count(key.second))
            continue;
        adj[key.first].push_back(key.second);
        ++indegree[key.second];
    }
    std::deque<int> ready;
    for (const auto &[id, deg] : indegree) {
        if (deg == 0)
            ready.push_back(id);
    }
    size_t placed = 0;
    while (!ready.empty()) {
        int id = ready.front();
        ready.pop_front();
        ++placed;
        for (int dst : adj[id]) {
            if (--indegree[dst] == 0)
                ready.push_back(dst);
        }
    }
    std::vector<int> cycle;
    if (placed == indegree.size())
        return cycle;
    for (const auto &[id, deg] : indegree) {
        if (deg > 0)
            cycle.push_back(id);
    }
    return cycle;
}

} // namespace

Report
verifyGenome(const Genome &genome, const GenomeInterface &iface)
{
    Report report;

    for (const auto &[id, node] : genome.nodes) {
        if (id < 0) {
            report.add(makeDiagnostic(
                rules::kInputAsDestination, nodeLocus(id),
                "input id " + std::to_string(id) +
                    " declared as a computed node gene; inputs are "
                    "implicit sources"));
        }
        if (!std::isfinite(node.bias)) {
            report.add(makeDiagnostic(
                rules::kNonfiniteParameter, nodeLocus(id),
                "bias is not finite"));
        }
    }

    if (iface.numOutputs > 0) {
        for (size_t o = 0; o < iface.numOutputs; ++o) {
            int id = static_cast<int>(o);
            if (!genome.nodes.count(id)) {
                report.add(makeDiagnostic(
                    rules::kMissingOutputNode, nodeLocus(id),
                    "interface requires " +
                        std::to_string(iface.numOutputs) +
                        " output nodes but node " + std::to_string(id) +
                        " has no gene"));
            }
        }
    }

    for (const auto &[key, gene] : genome.conns) {
        int from = key.first;
        int to = key.second;
        if (to < 0) {
            report.add(makeDiagnostic(
                rules::kInputAsDestination, connLocus(from, to),
                "connection targets input id " + std::to_string(to)));
        } else if (!genome.nodes.count(to)) {
            report.add(makeDiagnostic(
                rules::kDanglingEndpoint, connLocus(from, to),
                "destination node " + std::to_string(to) +
                    " has no node gene"));
        }
        if (from < 0) {
            if (iface.numInputs > 0 &&
                from < -static_cast<int>(iface.numInputs)) {
                report.add(makeDiagnostic(
                    rules::kInputOutOfRange, connLocus(from, to),
                    "input id " + std::to_string(from) +
                        " is outside the " +
                        std::to_string(iface.numInputs) +
                        "-dimensional observation space"));
            }
        } else if (!genome.nodes.count(from)) {
            report.add(makeDiagnostic(
                rules::kDanglingEndpoint, connLocus(from, to),
                "source node " + std::to_string(from) +
                    " has no node gene"));
        }
        if (!std::isfinite(gene.weight)) {
            report.add(makeDiagnostic(rules::kNonfiniteParameter,
                                      connLocus(from, to),
                                      "weight is not finite"));
        }
        if (iface.feedForward && from == to && gene.enabled) {
            report.add(makeDiagnostic(
                rules::kSelfLoop, connLocus(from, to),
                "enabled self-loop in a feed-forward genome"));
        }
    }

    // Reachability and acyclicity work on the enabled node->node graph.
    std::set<int> scope;
    if (iface.numOutputs > 0) {
        std::set<int> reachable =
            genomeReachable(genome, iface.numOutputs);
        for (const auto &[id, node] : genome.nodes) {
            if (id >= static_cast<int>(iface.numOutputs) &&
                !reachable.count(id)) {
                report.add(makeDiagnostic(
                    rules::kUnreachableHidden, nodeLocus(id),
                    "hidden node " + std::to_string(id) +
                        " has no enabled path to any output"));
            }
        }
        scope = std::move(reachable);
    } else if (iface.feedForward) {
        for (const auto &[id, node] : genome.nodes) {
            if (id >= 0)
                scope.insert(id);
        }
    }

    if (iface.feedForward) {
        std::vector<int> cycle = genomeCycle(genome, scope);
        if (!cycle.empty()) {
            report.add(makeDiagnostic(
                rules::kFeedForwardCycle, "nodes " + joinIds(cycle),
                "enabled connections form a cycle in a feed-forward "
                "genome"));
        }
    }

    return report;
}

Report
verifyNetworkDef(const NetworkDef &def, bool feedForward)
{
    Report report;

    std::set<int> inputSet;
    for (int id : def.inputIds) {
        if (!inputSet.insert(id).second) {
            report.add(makeDiagnostic(
                rules::kDuplicateElement, "input " + std::to_string(id),
                "duplicate input id"));
        }
    }

    std::set<int> nodeSet;
    for (const auto &node : def.nodes) {
        if (!nodeSet.insert(node.id).second) {
            report.add(makeDiagnostic(rules::kDuplicateElement,
                                      nodeLocus(node.id),
                                      "duplicate node id"));
        }
        if (inputSet.count(node.id)) {
            report.add(makeDiagnostic(
                rules::kInputAsDestination, nodeLocus(node.id),
                "input id " + std::to_string(node.id) +
                    " declared as a computed node"));
        }
        if (!std::isfinite(node.bias)) {
            report.add(makeDiagnostic(rules::kNonfiniteParameter,
                                      nodeLocus(node.id),
                                      "bias is not finite"));
        }
    }

    for (int id : def.outputIds) {
        if (!nodeSet.count(id)) {
            report.add(makeDiagnostic(
                rules::kMissingOutputNode, nodeLocus(id),
                "output node " + std::to_string(id) +
                    " has no node entry"));
        }
    }

    std::set<std::pair<int, int>> seenConns;
    for (const auto &conn : def.conns) {
        std::string locus = connLocus(conn.from, conn.to);
        if (!seenConns.insert({conn.from, conn.to}).second) {
            report.add(makeDiagnostic(rules::kDuplicateElement, locus,
                                      "duplicate connection"));
        }
        if (inputSet.count(conn.to) || conn.to < 0) {
            report.add(makeDiagnostic(
                rules::kInputAsDestination, locus,
                "connection targets input id " +
                    std::to_string(conn.to)));
        } else if (!nodeSet.count(conn.to)) {
            report.add(makeDiagnostic(
                rules::kDanglingEndpoint, locus,
                "destination node " + std::to_string(conn.to) +
                    " is not defined"));
        }
        if (!inputSet.count(conn.from) && !nodeSet.count(conn.from)) {
            report.add(makeDiagnostic(
                rules::kDanglingEndpoint, locus,
                "source node " + std::to_string(conn.from) +
                    " is not defined"));
        }
        if (!std::isfinite(conn.weight)) {
            report.add(makeDiagnostic(rules::kNonfiniteParameter, locus,
                                      "weight is not finite"));
        }
        if (feedForward && conn.from == conn.to) {
            report.add(makeDiagnostic(
                rules::kSelfLoop, locus,
                "self-loop in a feed-forward network definition"));
        }
    }

    // Graph-level analyses assume a well-formed def.
    if (report.hasErrors())
        return report;

    if (feedForward && !referenceIsAcyclic(def)) {
        report.add(makeDiagnostic(
            rules::kFeedForwardCycle, "",
            "connections form a cycle through required nodes"));
    } else {
        const std::set<int> required = referenceRequiredNodes(def);
        for (const auto &node : def.nodes) {
            if (!required.count(node.id)) {
                report.add(makeDiagnostic(
                    rules::kUnreachableHidden, nodeLocus(node.id),
                    "node " + std::to_string(node.id) +
                        " cannot reach any output and is pruned by "
                        "CreateNet"));
            }
        }
    }

    return report;
}

} // namespace e3::verify
