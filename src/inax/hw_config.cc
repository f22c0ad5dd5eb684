#include "inax/hw_config.hh"

#include <sstream>

namespace e3 {

namespace {

// Each rule states when its knob is in range, so a NaN, which fails
// every comparison, is out of range.
const InaxKnobRule kKnobRules[] = {
    {"numPUs", "accelerator needs at least one PU",
     [](const InaxConfig &c) { return c.numPUs > 0; }},
    {"numPEs", "a PU needs at least one PE",
     [](const InaxConfig &c) { return c.numPEs > 0; }},
    {"clockMhz", "fabric clock must be positive",
     [](const InaxConfig &c) { return c.clockMhz > 0.0; }},
    {"weightChannelWidth", "zero-width weight DMA channel",
     [](const InaxConfig &c) { return c.weightChannelWidth > 0; }},
    {"ioChannelWidth", "zero-width I/O DMA channel",
     [](const InaxConfig &c) { return c.ioChannelWidth > 0; }},
    {"activationDensity", "activation density must be in (0, 1]",
     [](const InaxConfig &c) {
         return c.activationDensity > 0.0 && c.activationDensity <= 1.0;
     }},
};

} // namespace

std::span<const InaxKnobRule>
inaxKnobRules()
{
    return kKnobRules;
}

Status
InaxConfig::validate() const
{
    for (const InaxKnobRule &rule : kKnobRules) {
        if (!rule.inRange(*this))
            return Status::error("INAX ", rule.knob, ": ", rule.message);
    }
    return Status();
}

std::string
InaxConfig::describe() const
{
    std::ostringstream oss;
    oss << "INAX{PU=" << numPUs << ", PE=" << numPEs << ", "
        << clockMhz << " MHz}";
    return oss.str();
}

InaxConfig
InaxConfig::paperDefault(size_t numOutputs)
{
    InaxConfig cfg;
    cfg.numPEs = numOutputs > 0 ? numOutputs : 1;
    cfg.numPUs = 50;
    assertOk(cfg.validate());
    return cfg;
}

} // namespace e3
