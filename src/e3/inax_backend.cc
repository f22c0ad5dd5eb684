#include "e3/inax_backend.hh"

#include <algorithm>

#include "common/logging.hh"
#include "verify/schedule_check.hh"

namespace e3 {

namespace {

/**
 * Debug-build invariant: every batch handed to AcceleratorSession must
 * be schedule-legal — PU/PE capacities, achievable PE-active cycles,
 * I/O shapes matching the generation's environment. The cost model
 * should be impossible to query with a physically impossible schedule;
 * release builds rely on the same checks being run offline via
 * `e3_cli verify`.
 */
[[maybe_unused]] void
debugVerifyBatch(const std::vector<IndividualCost> &batch,
                 const InaxConfig &cfg, const GenerationTrace &trace)
{
#ifndef NDEBUG
    verify::Report report = verify::verifyBatch(
        batch, cfg, trace.numInputs, trace.numOutputs);
    if (report.hasErrors()) {
        e3_panic("illegal INAX schedule reached the accelerator "
                 "session:\n",
                 verify::formatText(report));
    }
#else
    (void)batch;
    (void)cfg;
    (void)trace;
#endif
}

} // namespace

InaxBackend::InaxBackend(InaxConfig cfg) : cfg_(cfg)
{
    assertOk(cfg_.validate());
}

double
InaxBackend::evaluateSeconds(const GenerationTrace &trace)
{
    trace.validate();
    e3_assert(!trace.episodes.empty(), "trace without episodes");

    // Each individual's cost comes from the NetStats CreateNet already
    // computed for it; nothing here re-analyzes a definition.
    std::vector<IndividualCost> costs;
    costs.reserve(trace.defs.size());
    for (size_t i = 0; i < trace.defs.size(); ++i) {
        costs.push_back(puIndividualCost(trace.individuals[i],
                                         trace.defs[i].inputIds.size(),
                                         trace.defs[i].outputIds.size(),
                                         cfg_));
    }

    InaxReport generation;
    for (size_t start = 0; start < costs.size(); start += cfg_.numPUs) {
        const size_t end =
            std::min(start + cfg_.numPUs, costs.size());
        std::vector<IndividualCost> batch(
            costs.begin() + static_cast<long>(start),
            costs.begin() + static_cast<long>(end));
        debugVerifyBatch(batch, cfg_, trace);
        AcceleratorSession session(cfg_);
        session.loadBatch(std::move(batch));

        // Weights stay resident in the PU buffers, so every episode of
        // this generation reuses the one set-up phase.
        for (const auto &episode : trace.episodes)
            session.runEpisode(episode.data() + start, end - start);
        generation.merge(session.report());
    }

    report_.merge(generation);
    return generation.seconds(cfg_);
}

} // namespace e3
