#include "inax/pe.hh"

#include <cmath>

namespace e3 {

uint64_t
peNodeCycles(size_t inDegree, const InaxConfig &cfg)
{
    // One MAC per ingress connection — reduced by the zero-skip
    // extension to the expected non-zero operands — then the
    // bias/activation pipeline. An ingress-free node (disconnected
    // output) still flows through the pipeline to emit its activated
    // bias.
    const auto macs = static_cast<uint64_t>(
        std::ceil(static_cast<double>(inDegree) *
                  cfg.activationDensity));
    return macs + cfg.pePipelineLatency;
}

} // namespace e3
