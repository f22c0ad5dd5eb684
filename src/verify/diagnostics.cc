#include "verify/diagnostics.hh"

#include <algorithm>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"

namespace e3::verify {

const std::vector<RuleInfo> &
ruleCatalog()
{
    static const std::vector<RuleInfo> catalog = {
        {rules::kDanglingEndpoint, "dangling-endpoint", Severity::Error,
         "connection references a node id that is neither a declared "
         "node nor a valid input"},
        {rules::kInputAsDestination, "input-as-destination",
         Severity::Error,
         "connection targets an input id; inputs are pure value "
         "sources and cannot receive edges"},
        {rules::kMissingOutputNode, "missing-output-node",
         Severity::Error,
         "an output node id required by the interface has no node "
         "gene"},
        {rules::kFeedForwardCycle, "feedforward-cycle", Severity::Error,
         "enabled connections form a cycle through required nodes in a "
         "feed-forward genome"},
        {rules::kSelfLoop, "self-loop-in-feedforward", Severity::Error,
         "self-loop connection in a feed-forward genome (legal only "
         "under recurrent evaluation)"},
        {rules::kDuplicateElement, "duplicate-element", Severity::Error,
         "duplicate node id or connection key in one definition"},
        {rules::kNonfiniteParameter, "nonfinite-parameter",
         Severity::Error,
         "weight or bias is NaN or infinite"},
        {rules::kUnreachableHidden, "unreachable-hidden",
         Severity::Warning,
         "hidden node cannot reach any output; CreateNet prunes it "
         "(dead genetic material, not an execution hazard)"},
        {rules::kInputOutOfRange, "input-out-of-range", Severity::Error,
         "connection reads an input id outside the environment's "
         "observation dimension"},
        {rules::kLoadError, "load-error", Severity::Error,
         "artifact could not be parsed as a genome or checkpoint"},
        {rules::kParameterSaturates, "parameter-saturates",
         Severity::Error,
         "weight or bias lies outside the fixed-point range and is "
         "clipped at quantization"},
        {rules::kParameterUnderflows, "parameter-underflows",
         Severity::Warning,
         "nonzero weight or bias quantizes to exactly zero (connection "
         "is silently severed on the datapath)"},
        {rules::kInputMaySaturate, "input-may-saturate",
         Severity::Warning,
         "an observation bound exceeds the fixed-point range; inputs "
         "may clip at the accelerator boundary"},
        {rules::kActivationMaySaturate, "activation-may-saturate",
         Severity::Warning,
         "a node's statically bounded activation interval exceeds the "
         "fixed-point range; its value may clip"},
        {rules::kInvalidHwConfig, "invalid-hw-config", Severity::Error,
         "InaxConfig knob out of range (zero PUs/PEs, non-positive "
         "clock, zero-width DMA channel, bad density)"},
        {rules::kNodeCapacityExceeded, "node-capacity-exceeded",
         Severity::Error,
         "compiled network has more non-input nodes than the PU "
         "buffers support (maxSupportedNodes)"},
        {rules::kBatchOverflow, "batch-overflow", Severity::Error,
         "more individuals in one batch than the accelerator has PUs"},
        {rules::kImpossiblePeSchedule, "impossible-pe-schedule",
         Severity::Error,
         "claimed PE-active cycles exceed what numPEs PEs can deliver "
         "in the inference window"},
        {rules::kIoShapeMismatch, "io-shape-mismatch", Severity::Error,
         "individual's input/output count disagrees with the "
         "environment interface the schedule was sized for"},
        {rules::kBatchOpOutOfBounds, "batch-op-out-of-bounds",
         Severity::Error,
         "a compiled op or node indexes outside its lane's slot range "
         "or the shared op/node arrays"},
        {rules::kBatchSegmentPartition, "batch-segment-partition",
         Severity::Error,
         "a lane's segments do not exactly partition its node list in "
         "execution order"},
        {rules::kBatchLaneOverlap, "batch-lane-overlap",
         Severity::Error,
         "two lanes' value-arena regions overlap (or a lane reaches "
         "outside the arena), so concurrent activation would race"},
        {rules::kBatchActivationUnknown, "batch-activation-unknown",
         Severity::Error,
         "a segment carries an activation or aggregation outside the "
         "dispatch table, so activation would fall through"},
        {rules::kBatchOutputMap, "batch-output-map", Severity::Error,
         "a lane's output map reads an out-of-range slot or reads one "
         "slot twice (must be injective over lane slots)"},
        {rules::kBatchFoldDivergence, "batch-fold-divergence",
         Severity::Error,
         "the plan's op/node/segment stream is not bit-identical to "
         "the per-genome reference compile, so fold order (and "
         "rounding) would diverge"},
    };
    return catalog;
}

const RuleInfo &
ruleInfo(const std::string &ruleId)
{
    for (const RuleInfo &info : ruleCatalog()) {
        if (ruleId == info.id)
            return info;
    }
    e3_panic("unknown verifier rule id '", ruleId, "'");
}

Diagnostic
makeDiagnostic(const std::string &ruleId, std::string locus,
               std::string message)
{
    const RuleInfo &info = ruleInfo(ruleId);
    Diagnostic d;
    d.ruleId = info.id;
    d.ruleName = info.name;
    d.severity = info.severity;
    d.locus = std::move(locus);
    d.message = std::move(message);
    return d;
}

void
Report::merge(Report other)
{
    diagnostics.insert(diagnostics.end(),
                       std::make_move_iterator(other.diagnostics.begin()),
                       std::make_move_iterator(other.diagnostics.end()));
}

void
Report::setArtifact(const std::string &artifact)
{
    for (Diagnostic &d : diagnostics)
        d.artifact = artifact;
}

size_t
Report::errorCount() const
{
    return static_cast<size_t>(std::count_if(
        diagnostics.begin(), diagnostics.end(), [](const Diagnostic &d) {
            return d.severity == Severity::Error;
        }));
}

size_t
Report::warningCount() const
{
    return diagnostics.size() - errorCount();
}

std::string
severityName(Severity severity)
{
    return severity == Severity::Error ? "error" : "warning";
}

std::string
formatText(const Report &report)
{
    std::ostringstream oss;
    for (const Diagnostic &d : report.diagnostics) {
        if (!d.artifact.empty())
            oss << d.artifact << ": ";
        oss << severityName(d.severity) << ' ' << d.ruleId << ' '
            << d.ruleName;
        if (!d.locus.empty())
            oss << " [" << d.locus << ']';
        oss << ": " << d.message << '\n';
    }
    return oss.str();
}

std::string
toJson(const Report &report)
{
    std::ostringstream oss;
    oss << "{\"diagnostics\":[";
    for (size_t i = 0; i < report.diagnostics.size(); ++i) {
        const Diagnostic &d = report.diagnostics[i];
        if (i)
            oss << ',';
        oss << "{\"rule\":\"" << d.ruleId << "\""
            << ",\"name\":\"" << d.ruleName << "\""
            << ",\"severity\":\"" << severityName(d.severity) << "\""
            << ",\"artifact\":" << jsonQuote(d.artifact)
            << ",\"locus\":" << jsonQuote(d.locus)
            << ",\"message\":" << jsonQuote(d.message) << "}";
    }
    oss << "],\"errors\":" << report.errorCount()
        << ",\"warnings\":" << report.warningCount()
        << ",\"count\":" << report.diagnostics.size() << "}\n";
    return oss.str();
}

} // namespace e3::verify
