#include "e3/timing_model.hh"

#include <algorithm>

#include "common/logging.hh"

namespace e3 {

uint64_t
GenerationTrace::totalInferences() const
{
    uint64_t total = 0;
    for (const auto &episode : episodes) {
        for (int len : episode)
            total += static_cast<uint64_t>(len);
    }
    return total;
}

size_t
GenerationTrace::liveLanesAt(size_t episode, int t) const
{
    size_t live = 0;
    for (int len : episodes.at(episode))
        live += len > t ? 1 : 0;
    return live;
}

int
GenerationTrace::maxEpisodeLength(size_t episode) const
{
    int longest = 0;
    for (int len : episodes.at(episode))
        longest = std::max(longest, len);
    return longest;
}

void
GenerationTrace::validate() const
{
    e3_assert(defs.size() == individuals.size(),
              "trace defs/stats size mismatch");
    for (const auto &episode : episodes) {
        e3_assert(episode.size() == individuals.size(),
                  "trace episode lane-count mismatch");
    }
}

double
CpuTimingModel::inferenceSeconds(const NetStats &stats) const
{
    return perInferenceSeconds +
           perConnectionSeconds *
               static_cast<double>(stats.activeConnections) +
           perNodeSeconds * static_cast<double>(stats.activeNodes);
}

double
CpuTimingModel::evaluateSeconds(const GenerationTrace &trace) const
{
    trace.validate();
    double seconds = 0.0;
    for (const auto &episode : trace.episodes) {
        for (size_t i = 0; i < trace.individuals.size(); ++i) {
            seconds += inferenceSeconds(trace.individuals[i]) *
                       static_cast<double>(episode[i]);
        }
    }
    return seconds;
}

double
GpuTimingModel::evaluateSeconds(const GenerationTrace &trace) const
{
    trace.validate();
    double seconds = 0.0;
    for (size_t e = 0; e < trace.episodes.size(); ++e) {
        // Kernel work: one launch per dependency layer per inference,
        // plus the (tiny) MAC work at effectively batch-1 throughput.
        for (size_t i = 0; i < trace.individuals.size(); ++i) {
            const auto &stats = trace.individuals[i];
            const double perInference =
                kernelLaunchSeconds *
                    static_cast<double>(
                        std::max<size_t>(stats.layerSizes.size(), 1)) +
                inferenceTransferSeconds +
                static_cast<double>(stats.activeConnections) /
                    macsPerSecond;
            seconds += perInference *
                       static_cast<double>(trace.episodes[e][i]);
        }
        // Transfer: every lockstep env iteration moves a batch over
        // PCIe.
        seconds += stepTransferSeconds *
                   static_cast<double>(trace.maxEpisodeLength(e));
    }
    return seconds;
}

double
HostTimingModel::envSeconds(const GenerationTrace &trace) const
{
    return envStepSeconds *
           static_cast<double>(trace.totalInferences());
}

double
HostTimingModel::evolveSeconds(size_t populationSize) const
{
    return evolvePerGenomeSeconds *
           static_cast<double>(populationSize);
}

double
HostTimingModel::createNetSeconds(const GenerationTrace &trace) const
{
    double seconds = 0.0;
    for (const auto &stats : trace.individuals) {
        seconds += createNetPerGenomeSeconds +
                   createNetPerConnectionSeconds *
                       static_cast<double>(stats.activeConnections);
    }
    return seconds;
}

} // namespace e3
