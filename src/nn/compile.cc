#include "nn/compile.hh"

#include "nn/layering.hh"

namespace e3 {

Status
NetworkCompileOptions::validate() const
{
    if (recurrent && quantization)
        return Status::error(
            "quantized recurrent evaluation is not supported");
    if (quantization)
        return quantization->validate();
    return Status();
}

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

} // namespace e3
