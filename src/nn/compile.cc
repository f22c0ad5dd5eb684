#include "nn/compile.hh"

#include <utility>

#include "common/logging.hh"
#include "nn/layering.hh"
#include "nn/recurrent.hh"

namespace e3 {

Status
checkDefInvariants(const DefAnalysis &analysis, bool recurrent)
{
    if (!analysis.defect.ok())
        return analysis.defect;
    if (!recurrent && !analysis.acyclic)
        return Status::error(
            "connections form a cycle in a feed-forward definition");
    return Status();
}

Status
checkDefInvariants(const NetworkDef &def, bool recurrent)
{
    return checkDefInvariants(analyzeDef(def), recurrent);
}

Result<std::unique_ptr<Network>>
compileNetwork(const NetworkDef &def,
               const NetworkCompileOptions &options)
{
    if (options.recurrent && options.quantization)
        return Status::error(
            "quantized recurrent evaluation is not supported");
    if (Status invariants = checkDefInvariants(def, options.recurrent);
        !invariants.ok()) {
        return Status::error("malformed NetworkDef: ",
                             invariants.message());
    }
    if (options.quantization) {
        if (Status format = options.quantization->validate();
            !format.ok())
            return format;
        return std::unique_ptr<Network>(std::make_unique<QuantizedNetwork>(
            QuantizedNetwork::create(def, *options.quantization)));
    }
    if (options.recurrent) {
        return std::unique_ptr<Network>(std::make_unique<RecurrentNetwork>(
            RecurrentNetwork::create(def)));
    }
    return std::unique_ptr<Network>(std::make_unique<FeedForwardNetwork>(
        FeedForwardNetwork::create(def)));
}

} // namespace e3
