#include "inax/inax.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "inax/dma.hh"

namespace e3 {

uint64_t
InaxReport::evaluateControlCycles() const
{
    // Useful PE work normalized to the full PE array: active cycles
    // divided by the array size would undercount the paper's notion, so
    // follow Fig. 9(a): control = total - setup - (PE-active fraction
    // of compute). Compute windows where PEs idle, plus io and sync,
    // are control overhead.
    const uint64_t provisioned = pe.provisionedCycles();
    const uint64_t useful =
        provisioned
            ? static_cast<uint64_t>(pe.rate() *
                                    static_cast<double>(computeCycles))
            : 0;
    return totalCycles() - setupCycles - useful;
}

void
InaxReport::merge(const InaxReport &other)
{
    setupCycles += other.setupCycles;
    computeCycles += other.computeCycles;
    ioCycles += other.ioCycles;
    syncCycles += other.syncCycles;
    steps += other.steps;
    batches += other.batches;
    pe.merge(other.pe);
    pu.merge(other.pu);
}

AcceleratorSession::AcceleratorSession(const InaxConfig &cfg) : cfg_(cfg)
{
    assertOk(cfg_.validate());
}

void
AcceleratorSession::traceBatchSetup()
{
    usPerCycle_ = cfg_.secondsPerCycle() * 1e6;
    puTracks_.clear();
    puTracks_.reserve(batch_.size());
    char name[24];
    for (size_t i = 0; i < batch_.size(); ++i) {
        std::snprintf(name, sizeof name, "pu%02zu", i);
        puTracks_.push_back(obs::traceTrack("INAX (modeled)", name));
    }
    weightTrack_ = obs::traceTrack("INAX (modeled)", "weights");
    dmaTrack_ = obs::traceTrack("INAX (modeled)", "io-dma");
    ctrlTrack_ = obs::traceTrack("INAX (modeled)", "sig");

    // The shared weight channel serializes the configuration streams:
    // one setup span per individual, back to back.
    for (const auto &ind : batch_) {
        const uint64_t base = obs::traceClaimHwCycles(ind.setupCycles);
        obs::traceCompleteOn(
            weightTrack_, "setup",
            static_cast<double>(base) * usPerCycle_,
            static_cast<double>(ind.setupCycles) * usPerCycle_);
    }
}

void
AcceleratorSession::loadBatch(std::vector<IndividualCost> batch)
{
    e3_assert(!batch.empty(), "empty accelerator batch");
    e3_assert(batch.size() <= cfg_.numPUs,
              "batch of ", batch.size(), " exceeds ", cfg_.numPUs,
              " PUs");
    batch_ = std::move(batch);
    for (const auto &ind : batch_)
        report_.setupCycles += ind.setupCycles;
    ++report_.batches;

    tracing_ = obs::traceEnabled(obs::TraceDetail::Hw);
    if (tracing_)
        traceBatchSetup();
}

void
AcceleratorSession::step(const std::vector<bool> &live, uint64_t repeats)
{
    e3_assert(live.size() == batch_.size(),
              "live mask size ", live.size(), " != batch ",
              batch_.size());

    uint64_t window = 0;
    uint64_t puActive = 0;
    uint64_t peActive = 0;
    size_t liveLanes = 0;
    size_t maxInputs = 0;
    size_t maxOutputs = 0;
    for (size_t i = 0; i < batch_.size(); ++i) {
        if (!live[i])
            continue;
        ++liveLanes;
        window = std::max(window, batch_[i].inferenceCycles);
        puActive += batch_[i].inferenceCycles;
        peActive += batch_[i].peActiveCycles;
        maxInputs = std::max(maxInputs, batch_[i].numInputs);
        maxOutputs = std::max(maxOutputs, batch_[i].numOutputs);
    }
    if (liveLanes == 0 || repeats == 0)
        return; // nothing to do; the CPU would not raise "start"

    const uint64_t inCycles =
        inputTransferCycles(maxInputs, liveLanes, cfg_);
    const uint64_t outCycles =
        outputTransferCycles(maxOutputs, liveLanes, cfg_);

    report_.computeCycles += window * repeats;
    report_.ioCycles += (inCycles + outCycles) * repeats;
    report_.syncCycles += cfg_.stepSyncCycles * repeats;
    report_.steps += repeats;

    for (uint64_t r = 0; tracing_ && r < repeats; ++r) {
        // One modeled step window: scatter -> lockstep compute ->
        // gather -> handshake, laid out contiguously on the global
        // modeled-cycle axis. Each live PU's inference span starts at
        // the window's compute edge and ends on its own schedule; the
        // gap to the slowest PU *is* the U(PU) loss of paper Sec. V-B,
        // visible directly in Perfetto.
        const uint64_t base = obs::traceClaimHwCycles(
            inCycles + window + outCycles + cfg_.stepSyncCycles);
        const double us = usPerCycle_;
        const double inStart = static_cast<double>(base) * us;
        const double computeStart =
            static_cast<double>(base + inCycles) * us;
        obs::traceCompleteOn(dmaTrack_, "scatter_in", inStart,
                             static_cast<double>(inCycles) * us);
        for (size_t i = 0; i < batch_.size(); ++i) {
            if (!live[i])
                continue;
            obs::traceCompleteOn(
                puTracks_[i], "infer", computeStart,
                static_cast<double>(batch_[i].inferenceCycles) * us);
        }
        obs::traceCompleteOn(
            dmaTrack_, "gather_out",
            static_cast<double>(base + inCycles + window) * us,
            static_cast<double>(outCycles) * us);
        obs::traceCompleteOn(
            ctrlTrack_, "sync",
            static_cast<double>(base + inCycles + window + outCycles) *
                us,
            static_cast<double>(cfg_.stepSyncCycles) * us);
        const obs::TraceTrack counterTrack{dmaTrack_.pid, 0};
        obs::traceCounterOn(counterTrack, "live_pus", computeStart,
                            static_cast<double>(liveLanes));
        obs::traceCounterOn(counterTrack, "pe_active_cycles",
                            computeStart,
                            static_cast<double>(peActive));
    }

    // Provisioning charges the whole PU array for the window, and the
    // whole PE array of every PU for the same window.
    report_.pu.record(puActive * repeats,
                      window * cfg_.numPUs * repeats);
    report_.pe.record(peActive * repeats,
                      window * cfg_.numPUs * cfg_.numPEs * repeats);
}

void
AcceleratorSession::runEpisode(const int *lengths, size_t count)
{
    e3_assert(count == batch_.size(), "episode of ", count,
              " lanes for a batch of ", batch_.size());
    // Lane i is live at step t iff lengths[i] > t, so the live mask only
    // changes at the distinct lengths: each run between two of them is
    // one step() call repeated over the run.
    runEnds_.assign(lengths, lengths + count);
    std::sort(runEnds_.begin(), runEnds_.end());
    runEnds_.erase(std::unique(runEnds_.begin(), runEnds_.end()),
                   runEnds_.end());
    live_.resize(count);
    int runBegin = 0;
    for (int runEnd : runEnds_) {
        if (runEnd <= 0)
            continue;
        for (size_t i = 0; i < count; ++i)
            live_[i] = lengths[i] >= runEnd;
        step(live_, static_cast<uint64_t>(runEnd - runBegin));
        runBegin = runEnd;
    }
}

InaxReport
runAccelerator(const std::vector<IndividualCost> &individuals,
               const std::vector<int> &episodeLengths,
               const InaxConfig &cfg, BatchPolicy policy)
{
    e3_assert(individuals.size() == episodeLengths.size(),
              "episode-length list size mismatch");

    // Dispatch order per the batching policy.
    std::vector<size_t> order(individuals.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    if (policy == BatchPolicy::SortedByCost) {
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
            return individuals[a].inferenceCycles <
                   individuals[b].inferenceCycles;
        });
    } else if (policy == BatchPolicy::SortedByLength) {
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
            return episodeLengths[a] < episodeLengths[b];
        });
    }

    InaxReport total;
    for (size_t start = 0; start < individuals.size();
         start += cfg.numPUs) {
        const size_t end =
            std::min(start + cfg.numPUs, individuals.size());

        std::vector<IndividualCost> batch;
        std::vector<int> lengths;
        for (size_t i = start; i < end; ++i) {
            batch.push_back(individuals[order[i]]);
            lengths.push_back(episodeLengths[order[i]]);
        }

        AcceleratorSession session(cfg);
        session.loadBatch(std::move(batch));
        session.runEpisode(lengths.data(), lengths.size());
        total.merge(session.report());
    }
    return total;
}

} // namespace e3
