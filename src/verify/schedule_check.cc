#include "verify/schedule_check.hh"

#include <string>

#include "nn/layering.hh"

namespace e3::verify {

Report
verifyHwConfig(const InaxConfig &cfg)
{
    Report report;
    for (const InaxKnobRule &rule : inaxKnobRules()) {
        if (!rule.inRange(cfg)) {
            report.add(makeDiagnostic(rules::kInvalidHwConfig, rule.knob,
                                      rule.message));
        }
    }
    return report;
}

Report
verifyIndividualCost(const IndividualCost &cost, const InaxConfig &cfg,
                     size_t numInputs, size_t numOutputs,
                     const std::string &locus)
{
    Report report;
    const uint64_t peBudget =
        cost.inferenceCycles * static_cast<uint64_t>(cfg.numPEs);
    if (cost.peActiveCycles > peBudget) {
        report.add(makeDiagnostic(
            rules::kImpossiblePeSchedule, locus,
            "claimed " + std::to_string(cost.peActiveCycles) +
                " PE-active cycles but " + std::to_string(cfg.numPEs) +
                " PEs deliver at most " + std::to_string(peBudget) +
                " in a " + std::to_string(cost.inferenceCycles) +
                "-cycle inference window"));
    }
    if (numInputs > 0 && cost.numInputs != numInputs) {
        report.add(makeDiagnostic(
            rules::kIoShapeMismatch, locus,
            "individual has " + std::to_string(cost.numInputs) +
                " inputs but the schedule is sized for " +
                std::to_string(numInputs)));
    }
    if (numOutputs > 0 && cost.numOutputs != numOutputs) {
        report.add(makeDiagnostic(
            rules::kIoShapeMismatch, locus,
            "individual has " + std::to_string(cost.numOutputs) +
                " outputs but the schedule is sized for " +
                std::to_string(numOutputs)));
    }
    return report;
}

Report
verifyBatch(const std::vector<IndividualCost> &costs,
            const InaxConfig &cfg, size_t numInputs, size_t numOutputs)
{
    Report report = verifyHwConfig(cfg);
    if (report.hasErrors())
        return report;
    if (costs.size() > cfg.numPUs) {
        report.add(makeDiagnostic(
            rules::kBatchOverflow, "batch",
            std::to_string(costs.size()) +
                " individuals in one batch but only " +
                std::to_string(cfg.numPUs) + " PUs"));
    }
    for (size_t i = 0; i < costs.size(); ++i) {
        report.merge(verifyIndividualCost(
            costs[i], cfg, numInputs, numOutputs,
            "individual " + std::to_string(i)));
    }
    return report;
}

Report
verifyDefOnHardware(const NetworkDef &def, const InaxConfig &cfg,
                    size_t numInputs, size_t numOutputs)
{
    Report report = verifyHwConfig(cfg);
    if (report.hasErrors())
        return report; // the cost model fatals on an invalid config

    const DefAnalysis &a = analyzeDef(def);
    a.assertAcyclic();
    const NetStats stats = netStatsOf(def, a);
    if (stats.activeNodes > cfg.maxSupportedNodes) {
        report.add(makeDiagnostic(
            rules::kNodeCapacityExceeded, "network",
            "compiled network has " + std::to_string(stats.activeNodes) +
                " non-input nodes but the PU buffers support " +
                std::to_string(cfg.maxSupportedNodes)));
    }
    report.merge(verifyIndividualCost(
        puIndividualCost(stats, def.inputIds.size(), def.outputIds.size(),
                         cfg),
        cfg, numInputs, numOutputs, "network"));
    return report;
}

} // namespace e3::verify
