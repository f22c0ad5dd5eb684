#include "inax/pu.hh"

#include "inax/dma.hh"
#include "nn/layering.hh"
#include "nn/net_stats.hh"

namespace e3 {

IndividualCost
puIndividualCost(const NetworkDef &def, const InaxConfig &cfg)
{
    const DefAnalysis &a = analyzeDef(def);
    a.assertAcyclic();
    return puIndividualCost(netStatsOf(def, a), def.inputIds.size(),
                            def.outputIds.size(), cfg);
}

IndividualCost
puIndividualCost(const NetStats &stats, size_t numInputs,
                 size_t numOutputs, const InaxConfig &cfg)
{
    const InferenceCost inference = scheduleNetwork(stats, cfg);

    IndividualCost cost;
    cost.inferenceCycles = inference.cycles;
    cost.peActiveCycles = inference.peActiveCycles;
    cost.setupCycles =
        setupCycles(stats.activeNodes, stats.activeConnections, cfg);
    cost.numInputs = numInputs;
    cost.numOutputs = numOutputs;
    cost.weightBufferWords =
        configWords(stats.activeNodes, stats.activeConnections);
    cost.valueBufferWords = numInputs + stats.activeNodes;
    return cost;
}

} // namespace e3
