#include "verify/batch_check.hh"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <sstream>

#include "verify/reference_layering.hh"
#include "verify/structural.hh"

namespace e3::verify {

namespace {

/** Bit-level double equality: NaN payloads and signed zeros count. */
bool
bitEqual(double a, double b)
{
    uint64_t ua;
    uint64_t ub;
    std::memcpy(&ua, &a, sizeof ua);
    std::memcpy(&ub, &b, sizeof ub);
    return ua == ub;
}

std::string
laneLocus(size_t lane)
{
    return "lane " + std::to_string(lane);
}

/** Lane whose [segBegin, segEnd) covers segment @p s, for loci. */
size_t
laneOfSegment(const BatchPlan &plan, uint32_t s)
{
    for (size_t li = 0; li < plan.lanes.size(); ++li) {
        if (s >= plan.lanes[li].segBegin && s < plan.lanes[li].segEnd)
            return li;
    }
    return 0;
}

} // namespace

Report
verifyBatchPlanStructure(const BatchPlan &plan)
{
    Report report;
    const auto add = [&](const char *rule, std::string locus,
                         std::string message) {
        report.add(makeDiagnostic(rule, std::move(locus),
                                  std::move(message)));
    };

    if (plan.lanes.empty()) {
        add(rules::kBatchSegmentPartition, "plan",
            "plan has no lanes: nothing would ever execute");
        return report;
    }

    for (size_t li = 0; li < plan.lanes.size(); ++li) {
        const BatchPlan::LaneProgram &lane = plan.lanes[li];

        if (lane.segBegin > lane.segEnd ||
            lane.segEnd > plan.segments.size()) {
            add(rules::kBatchSegmentPartition, laneLocus(li),
                "segment range [" + std::to_string(lane.segBegin) +
                    ", " + std::to_string(lane.segEnd) +
                    ") lies outside the " +
                    std::to_string(plan.segments.size()) +
                    "-entry segment table");
            continue; // nothing below this lane can be trusted
        }
        if (static_cast<uint64_t>(lane.valueBase) + lane.slotCount >
            plan.arenaSize) {
            add(rules::kBatchLaneOverlap, laneLocus(li),
                "arena region [" + std::to_string(lane.valueBase) +
                    ", " +
                    std::to_string(lane.valueBase + lane.slotCount) +
                    ") reaches outside the " +
                    std::to_string(plan.arenaSize) + "-slot arena");
        }
        if (plan.numInputs > lane.slotCount) {
            add(rules::kBatchOpOutOfBounds, laneLocus(li),
                std::to_string(plan.numInputs) +
                    " inputs would be written into only " +
                    std::to_string(lane.slotCount) + " lane slots");
        }

        // Segments must tile the node list back to back, in order.
        uint32_t expectNode =
            lane.segBegin < lane.segEnd
                ? plan.segments[lane.segBegin].nodeBegin
                : 0;
        for (uint32_t s = lane.segBegin; s != lane.segEnd; ++s) {
            const BatchPlan::Segment &seg = plan.segments[s];
            const std::string segLocus =
                laneLocus(li) + " segment " + std::to_string(s);
            if (seg.nodeBegin >= seg.nodeEnd ||
                seg.nodeEnd > plan.nodes.size()) {
                add(rules::kBatchSegmentPartition, segLocus,
                    "node range [" + std::to_string(seg.nodeBegin) +
                        ", " + std::to_string(seg.nodeEnd) +
                        ") is empty or outside the " +
                        std::to_string(plan.nodes.size()) +
                        "-entry node table");
                continue;
            }
            if (seg.nodeBegin != expectNode) {
                add(rules::kBatchSegmentPartition, segLocus,
                    "starts at node " + std::to_string(seg.nodeBegin) +
                        " but the previous segment ended at node " +
                        std::to_string(expectNode) +
                        "; segments must partition the lane's node "
                        "list with no gap or overlap");
            }
            expectNode = seg.nodeEnd;

            if (static_cast<int>(seg.act) < 0 ||
                static_cast<int>(seg.act) >= kActivationCount) {
                add(rules::kBatchActivationUnknown, segLocus,
                    "activation enumerator " +
                        std::to_string(static_cast<int>(seg.act)) +
                        " is outside the dispatch table [0, " +
                        std::to_string(kActivationCount) + ")");
            }
            if (static_cast<int>(seg.agg) < 0 ||
                static_cast<int>(seg.agg) >= kAggregationCount) {
                add(rules::kBatchActivationUnknown, segLocus,
                    "aggregation enumerator " +
                        std::to_string(static_cast<int>(seg.agg)) +
                        " is outside the dispatch table [0, " +
                        std::to_string(kAggregationCount) + ")");
            }

            for (uint32_t n = seg.nodeBegin; n != seg.nodeEnd; ++n) {
                const BatchPlan::NodeRun &node = plan.nodes[n];
                const std::string nodeLocus =
                    "node " + std::to_string(n);
                if (node.opBegin > node.opEnd ||
                    node.opEnd > plan.ops.size()) {
                    add(rules::kBatchOpOutOfBounds, nodeLocus,
                        "op range [" + std::to_string(node.opBegin) +
                            ", " + std::to_string(node.opEnd) +
                            ") lies outside the " +
                            std::to_string(plan.ops.size()) +
                            "-entry op table");
                    continue;
                }
                if (node.dstSlot >= lane.slotCount) {
                    add(rules::kBatchOpOutOfBounds, nodeLocus,
                        "dstSlot " + std::to_string(node.dstSlot) +
                            " is outside the lane's " +
                            std::to_string(lane.slotCount) + " slots");
                }
                for (uint32_t o = node.opBegin; o != node.opEnd;
                     ++o) {
                    if (plan.ops[o].srcSlot >= lane.slotCount) {
                        add(rules::kBatchOpOutOfBounds,
                            nodeLocus + " op " + std::to_string(o),
                            "srcSlot " +
                                std::to_string(plan.ops[o].srcSlot) +
                                " is outside the lane's " +
                                std::to_string(lane.slotCount) +
                                " slots");
                    }
                }
            }
        }

        // Output map: in-range and injective.
        if (static_cast<uint64_t>(lane.outBase) + plan.numOutputs >
            plan.outputSlots.size()) {
            add(rules::kBatchOutputMap, laneLocus(li),
                "output map [" + std::to_string(lane.outBase) + ", " +
                    std::to_string(lane.outBase + plan.numOutputs) +
                    ") lies outside the " +
                    std::to_string(plan.outputSlots.size()) +
                    "-entry output-slot table");
        } else {
            for (size_t a = 0; a < plan.numOutputs; ++a) {
                const uint32_t slot =
                    plan.outputSlots[lane.outBase + a];
                if (slot >= lane.slotCount) {
                    add(rules::kBatchOutputMap,
                        laneLocus(li) + " output " + std::to_string(a),
                        "reads slot " + std::to_string(slot) +
                            ", outside the lane's " +
                            std::to_string(lane.slotCount) +
                            " slots");
                }
                for (size_t b = a + 1; b < plan.numOutputs; ++b) {
                    if (plan.outputSlots[lane.outBase + b] == slot) {
                        add(rules::kBatchOutputMap, laneLocus(li),
                            "outputs " + std::to_string(a) + " and " +
                                std::to_string(b) +
                                " both read slot " +
                                std::to_string(slot) +
                                "; the output map must be injective");
                    }
                }
            }
        }
    }

    // Arena regions pairwise disjoint across lanes.
    std::vector<std::pair<uint64_t, size_t>> byBase;
    byBase.reserve(plan.lanes.size());
    for (size_t li = 0; li < plan.lanes.size(); ++li)
        byBase.emplace_back(plan.lanes[li].valueBase, li);
    std::sort(byBase.begin(), byBase.end());
    for (size_t i = 1; i < byBase.size(); ++i) {
        const BatchPlan::LaneProgram &prev =
            plan.lanes[byBase[i - 1].second];
        const BatchPlan::LaneProgram &cur =
            plan.lanes[byBase[i].second];
        if (static_cast<uint64_t>(prev.valueBase) + prev.slotCount >
            cur.valueBase) {
            add(rules::kBatchLaneOverlap,
                laneLocus(byBase[i - 1].second) + " / " +
                    laneLocus(byBase[i].second),
                "arena regions [" + std::to_string(prev.valueBase) +
                    ", " +
                    std::to_string(prev.valueBase + prev.slotCount) +
                    ") and [" + std::to_string(cur.valueBase) + ", " +
                    std::to_string(cur.valueBase + cur.slotCount) +
                    ") overlap; concurrent lane activation would "
                    "race");
        }
    }
    return report;
}

namespace {

/**
 * The plan the SoA engine must emit for @p defs, derived from the
 * reference layering rather than the production compiler: per lane,
 * inputs take slots 0..n-1 (a repeated input id keeps its last
 * position) and layered nodes follow in layer order; each node folds
 * its ingress links from inputs or required nodes in def order; and
 * consecutive nodes sharing (activation, aggregation) share a segment.
 * A single def is replicated across @p lanes lanes, sharing one
 * program.
 */
BatchPlan
referencePlan(const std::vector<NetworkDef> &defs, size_t lanes)
{
    BatchPlan plan;
    plan.numInputs = defs.front().inputIds.size();
    plan.numOutputs = defs.front().outputIds.size();
    for (const NetworkDef &def : defs) {
        const std::vector<std::vector<int>> layers = referenceLayers(def);
        const std::set<int> required = referenceRequiredNodes(def);
        const std::set<int> inputs(def.inputIds.begin(),
                                   def.inputIds.end());
        std::map<int, uint32_t> slotOf;
        for (size_t i = 0; i < def.inputIds.size(); ++i)
            slotOf[def.inputIds[i]] = static_cast<uint32_t>(i);
        uint32_t slots = static_cast<uint32_t>(def.inputIds.size());
        for (const auto &layer : layers) {
            for (int id : layer)
                slotOf[id] = slots++;
        }
        std::map<int, std::vector<BatchPlan::Op>> ingress;
        for (const auto &c : def.conns) {
            if (required.count(c.to) &&
                (inputs.count(c.from) || required.count(c.from)))
                ingress[c.to].push_back({slotOf.at(c.from), c.weight});
        }
        std::map<int, const NetworkDef::Node *> nodeOf;
        for (const auto &node : def.nodes)
            nodeOf.emplace(node.id, &node);

        BatchPlan::LaneProgram lane;
        lane.segBegin = static_cast<uint32_t>(plan.segments.size());
        lane.valueBase = plan.lanes.empty()
                             ? 0
                             : plan.lanes.back().valueBase +
                                   plan.lanes.back().slotCount;
        lane.slotCount = slots;
        lane.outBase = static_cast<uint32_t>(plan.outputSlots.size());
        for (const auto &layer : layers) {
            for (int id : layer) {
                const NetworkDef::Node &node = *nodeOf.at(id);
                if (plan.segments.size() == lane.segBegin ||
                    plan.segments.back().act != node.act ||
                    plan.segments.back().agg != node.agg) {
                    const auto at =
                        static_cast<uint32_t>(plan.nodes.size());
                    plan.segments.push_back({at, at, node.act, node.agg});
                }
                BatchPlan::NodeRun run{slotOf.at(id),
                                       static_cast<uint32_t>(
                                           plan.ops.size()),
                                       0, node.bias};
                const auto links = ingress.find(id);
                if (links != ingress.end())
                    plan.ops.insert(plan.ops.end(), links->second.begin(),
                                    links->second.end());
                run.opEnd = static_cast<uint32_t>(plan.ops.size());
                plan.nodes.push_back(run);
                plan.segments.back().nodeEnd =
                    static_cast<uint32_t>(plan.nodes.size());
            }
        }
        lane.segEnd = static_cast<uint32_t>(plan.segments.size());
        for (int id : def.outputIds)
            plan.outputSlots.push_back(slotOf.at(id));
        plan.lanes.push_back(lane);
    }
    const BatchPlan::LaneProgram proto = plan.lanes.front();
    for (size_t l = plan.lanes.size(); l < lanes; ++l) {
        BatchPlan::LaneProgram p = proto;
        p.valueBase = static_cast<uint32_t>(l) * proto.slotCount;
        plan.lanes.push_back(p);
    }
    plan.arenaSize = static_cast<size_t>(plan.lanes.back().valueBase) +
                     plan.lanes.back().slotCount;
    return plan;
}

} // namespace

Report
verifyBatchPlanFold(const BatchPlan &plan,
                    const std::vector<NetworkDef> &defs)
{
    Report report;
    const auto diverge = [&](std::string locus, std::string message) {
        report.add(makeDiagnostic(rules::kBatchFoldDivergence,
                                  std::move(locus),
                                  std::move(message)));
    };

    if (defs.size() != 1 && defs.size() != plan.lanes.size()) {
        diverge("plan",
                std::to_string(defs.size()) +
                    " definitions supplied for a " +
                    std::to_string(plan.lanes.size()) +
                    "-lane plan (need one per lane, or exactly one "
                    "to replicate)");
        return report;
    }
    for (const NetworkDef &def : defs) {
        const Report defReport = verifyNetworkDef(def, true);
        for (const Diagnostic &d : defReport.diagnostics) {
            if (d.severity != Severity::Error)
                continue;
            diverge("reference compile",
                    "the source definitions no longer compile: " +
                        d.ruleId + " " + d.message);
            return report;
        }
    }
    const BatchPlan ref =
        referencePlan(defs, std::max(defs.size(), plan.lanes.size()));

    const auto sizeMismatch = [&](const char *what, size_t got,
                                  size_t want) {
        diverge("plan", std::string(what) + " count " +
                            std::to_string(got) +
                            " differs from the reference compile's " +
                            std::to_string(want));
    };
    if (plan.numInputs != ref.numInputs ||
        plan.numOutputs != ref.numOutputs) {
        diverge("plan",
                "arity " + std::to_string(plan.numInputs) + "x" +
                    std::to_string(plan.numOutputs) +
                    " differs from the reference compile's " +
                    std::to_string(ref.numInputs) + "x" +
                    std::to_string(ref.numOutputs));
        return report;
    }
    if (plan.ops.size() != ref.ops.size())
        sizeMismatch("op", plan.ops.size(), ref.ops.size());
    if (plan.nodes.size() != ref.nodes.size())
        sizeMismatch("node", plan.nodes.size(), ref.nodes.size());
    if (plan.segments.size() != ref.segments.size())
        sizeMismatch("segment", plan.segments.size(),
                     ref.segments.size());
    if (plan.outputSlots.size() != ref.outputSlots.size())
        sizeMismatch("output-slot", plan.outputSlots.size(),
                     ref.outputSlots.size());
    if (plan.arenaSize != ref.arenaSize)
        sizeMismatch("arena slot", plan.arenaSize, ref.arenaSize);
    if (!report.empty())
        return report;

    for (size_t i = 0; i < plan.ops.size(); ++i) {
        if (plan.ops[i].srcSlot != ref.ops[i].srcSlot ||
            !bitEqual(plan.ops[i].weight, ref.ops[i].weight)) {
            diverge("op " + std::to_string(i),
                    "fold step differs from the reference compile "
                    "(srcSlot or weight bits changed), so rounding "
                    "order is no longer the per-genome order");
            break;
        }
    }
    for (size_t i = 0; i < plan.nodes.size(); ++i) {
        const BatchPlan::NodeRun &a = plan.nodes[i];
        const BatchPlan::NodeRun &b = ref.nodes[i];
        if (a.dstSlot != b.dstSlot || a.opBegin != b.opBegin ||
            a.opEnd != b.opEnd || !bitEqual(a.bias, b.bias)) {
            diverge("node " + std::to_string(i),
                    "node run differs from the reference compile");
            break;
        }
    }
    for (size_t i = 0; i < plan.segments.size(); ++i) {
        const BatchPlan::Segment &a = plan.segments[i];
        const BatchPlan::Segment &b = ref.segments[i];
        if (a.nodeBegin != b.nodeBegin || a.nodeEnd != b.nodeEnd ||
            a.act != b.act || a.agg != b.agg) {
            diverge("lane " +
                        std::to_string(laneOfSegment(plan,
                                                     static_cast<
                                                         uint32_t>(i))) +
                        " segment " + std::to_string(i),
                    "segment differs from the reference compile");
            break;
        }
    }
    for (size_t i = 0; i < plan.outputSlots.size(); ++i) {
        if (plan.outputSlots[i] != ref.outputSlots[i]) {
            diverge("output slot " + std::to_string(i),
                    "output map differs from the reference compile");
            break;
        }
    }
    for (size_t i = 0; i < plan.lanes.size(); ++i) {
        const BatchPlan::LaneProgram &a = plan.lanes[i];
        const BatchPlan::LaneProgram &b = ref.lanes[i];
        if (a.segBegin != b.segBegin || a.segEnd != b.segEnd ||
            a.valueBase != b.valueBase ||
            a.slotCount != b.slotCount || a.outBase != b.outBase) {
            diverge(laneLocus(i),
                    "lane program differs from the reference compile");
            break;
        }
    }
    return report;
}

Report
verifyBatchPlan(const BatchPlan &plan,
                const std::vector<NetworkDef> &defs)
{
    Report report = verifyBatchPlanStructure(plan);
    if (!defs.empty() && !report.hasErrors())
        report.merge(verifyBatchPlanFold(plan, defs));
    return report;
}

std::string
batchPlanToText(const BatchPlan &plan)
{
    std::ostringstream oss;
    char buf[64];
    const auto g17 = [&](double v) -> const char * {
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return buf;
    };
    oss << "e3-batch-plan v1\n";
    oss << "inputs " << plan.numInputs << "\n";
    oss << "outputs " << plan.numOutputs << "\n";
    oss << "arena " << plan.arenaSize << "\n";
    oss << "ops " << plan.ops.size() << "\n";
    for (const BatchPlan::Op &op : plan.ops)
        oss << op.srcSlot << " " << g17(op.weight) << "\n";
    oss << "nodes " << plan.nodes.size() << "\n";
    for (const BatchPlan::NodeRun &n : plan.nodes)
        oss << n.dstSlot << " " << n.opBegin << " " << n.opEnd << " "
            << g17(n.bias) << "\n";
    oss << "segments " << plan.segments.size() << "\n";
    for (const BatchPlan::Segment &s : plan.segments)
        oss << s.nodeBegin << " " << s.nodeEnd << " "
            << static_cast<int>(s.act) << " "
            << static_cast<int>(s.agg) << "\n";
    oss << "outputSlots " << plan.outputSlots.size() << "\n";
    for (uint32_t slot : plan.outputSlots)
        oss << slot << "\n";
    oss << "lanes " << plan.lanes.size() << "\n";
    for (const BatchPlan::LaneProgram &l : plan.lanes)
        oss << l.segBegin << " " << l.segEnd << " " << l.valueBase
            << " " << l.slotCount << " " << l.outBase << "\n";
    return oss.str();
}

Result<BatchPlan>
batchPlanFromText(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    size_t lineNo = 0;
    const auto nextLine = [&]() -> bool {
        while (std::getline(in, line)) {
            ++lineNo;
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (!line.empty())
                return true;
        }
        return false;
    };
    const auto parseError = [&](const std::string &what) {
        return Status::error("batch plan text, line ", lineNo, ": ",
                             what);
    };

    if (!nextLine() || line != "e3-batch-plan v1")
        return Status::error(
            "batch plan text must start with 'e3-batch-plan v1'");

    BatchPlan plan;
    const auto readScalar = [&](const char *key,
                                size_t &out) -> Status {
        if (!nextLine())
            return Status::error("batch plan text: truncated before '",
                                 key, "'");
        std::istringstream ls(line);
        std::string gotKey;
        if (!(ls >> gotKey >> out) || gotKey != key)
            return parseError(std::string("expected '") + key +
                              " <count>', got '" + line + "'");
        return Status();
    };

    if (Status s = readScalar("inputs", plan.numInputs); !s.ok())
        return s;
    if (Status s = readScalar("outputs", plan.numOutputs); !s.ok())
        return s;
    if (Status s = readScalar("arena", plan.arenaSize); !s.ok())
        return s;

    size_t count = 0;
    if (Status s = readScalar("ops", count); !s.ok())
        return s;
    plan.ops.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        if (!nextLine())
            return Status::error("batch plan text: truncated op list");
        std::istringstream ls(line);
        BatchPlan::Op op;
        if (!(ls >> op.srcSlot >> op.weight))
            return parseError("malformed op '" + line + "'");
        plan.ops.push_back(op);
    }

    if (Status s = readScalar("nodes", count); !s.ok())
        return s;
    plan.nodes.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        if (!nextLine())
            return Status::error(
                "batch plan text: truncated node list");
        std::istringstream ls(line);
        BatchPlan::NodeRun n;
        if (!(ls >> n.dstSlot >> n.opBegin >> n.opEnd >> n.bias))
            return parseError("malformed node '" + line + "'");
        plan.nodes.push_back(n);
    }

    if (Status s = readScalar("segments", count); !s.ok())
        return s;
    plan.segments.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        if (!nextLine())
            return Status::error(
                "batch plan text: truncated segment list");
        std::istringstream ls(line);
        BatchPlan::Segment seg;
        int act = 0;
        int agg = 0;
        if (!(ls >> seg.nodeBegin >> seg.nodeEnd >> act >> agg))
            return parseError("malformed segment '" + line + "'");
        // Out-of-range enumerators parse fine on purpose: E3V304 is
        // the verifier's finding, not the parser's.
        seg.act = static_cast<Activation>(act);
        seg.agg = static_cast<Aggregation>(agg);
        plan.segments.push_back(seg);
    }

    if (Status s = readScalar("outputSlots", count); !s.ok())
        return s;
    plan.outputSlots.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        if (!nextLine())
            return Status::error(
                "batch plan text: truncated output-slot list");
        std::istringstream ls(line);
        uint32_t slot = 0;
        if (!(ls >> slot))
            return parseError("malformed output slot '" + line + "'");
        plan.outputSlots.push_back(slot);
    }

    if (Status s = readScalar("lanes", count); !s.ok())
        return s;
    plan.lanes.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        if (!nextLine())
            return Status::error(
                "batch plan text: truncated lane list");
        std::istringstream ls(line);
        BatchPlan::LaneProgram l;
        if (!(ls >> l.segBegin >> l.segEnd >> l.valueBase >>
              l.slotCount >> l.outBase))
            return parseError("malformed lane '" + line + "'");
        plan.lanes.push_back(l);
    }

    if (nextLine())
        return parseError("trailing content '" + line + "'");
    return plan;
}

} // namespace e3::verify
