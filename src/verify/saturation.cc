#include "verify/saturation.hh"

#include <cmath>
#include <sstream>
#include <string>

#include "common/float_eq.hh"
#include "common/logging.hh"
#include "nn/batch_eval.hh"
#include "nn/layering.hh"

namespace e3::verify {

namespace {

std::string
fmtRange(const Interval &v)
{
    std::ostringstream oss;
    oss << '[' << v.lo << ", " << v.hi << ']';
    return oss.str();
}

std::string
fmtValue(double v)
{
    std::ostringstream oss;
    oss << v;
    return oss.str();
}

/** Does quantize(v) round to exactly zero? */
bool
underflowsToZero(const FixedPointFormat &format, double v)
{
    // An exact zero is not an underflow.
    return !isExactZero(v) &&
           isExactZero(std::round(v / format.resolution()));
}

/** Check one parameter value; returns true on a saturation error. */
bool
checkParameter(Report &report, const FixedPointFormat &format,
               const std::string &locus, const char *what, double v)
{
    if (formatClips(format, v)) {
        report.add(makeDiagnostic(
            rules::kParameterSaturates, locus,
            std::string(what) + " " + fmtValue(v) +
                " is outside the " + format.describe() + " range [" +
                fmtValue(format.minValue()) + ", " +
                fmtValue(format.maxValue()) +
                "] and is clipped at quantization"));
        return true;
    }
    if (underflowsToZero(format, v)) {
        report.add(makeDiagnostic(
            rules::kParameterUnderflows, locus,
            std::string(what) + " " + fmtValue(v) +
                " quantizes to zero at " + format.describe() +
                " resolution " + fmtValue(format.resolution())));
    }
    return false;
}

/**
 * Smallest format at the same fracBits whose range covers maxAbs;
 * false when no format up to 64 bits does (e.g. unbounded intervals).
 */
bool
suggestFormat(double maxAbs, int fracBits, FixedPointFormat &out)
{
    if (!std::isfinite(maxAbs))
        return false;
    const double res = std::ldexp(1.0, -fracBits);
    for (int intBits = 0; intBits + fracBits + 1 <= 64; ++intBits) {
        const double top = std::ldexp(1.0, intBits) - res;
        if (top >= maxAbs) {
            out.totalBits = intBits + fracBits + 1;
            out.fracBits = fracBits;
            return true;
        }
    }
    return false;
}

} // namespace

bool
formatClips(const FixedPointFormat &format, double v)
{
    const double scaled = std::round(v / format.resolution());
    const double lo = -std::ldexp(1.0, format.totalBits - 1);
    const double hi = std::ldexp(1.0, format.totalBits - 1) - 1.0;
    return scaled < lo || scaled > hi;
}

QuantizationAnalysis
analyzeQuantization(const NetworkDef &def,
                    const std::vector<Interval> &inputBounds,
                    const FixedPointFormat &format)
{
    e3_assert(inputBounds.size() == def.inputIds.size(),
              "analyzeQuantization: input bound count mismatch");

    QuantizationAnalysis out;
    out.format = format;
    out.inputBounds = inputBounds;

    double maxAbs = 0.0;
    for (const auto &node : def.nodes) {
        checkParameter(out.report, format,
                       "node " + std::to_string(node.id), "bias",
                       node.bias);
        maxAbs = std::max(maxAbs, std::fabs(node.bias));
    }
    for (const auto &conn : def.conns) {
        checkParameter(out.report, format,
                       "conn " + std::to_string(conn.from) + "->" +
                           std::to_string(conn.to),
                       "weight", conn.weight);
        maxAbs = std::max(maxAbs, std::fabs(conn.weight));
    }

    for (size_t i = 0; i < inputBounds.size(); ++i) {
        const Interval &raw = inputBounds[i];
        maxAbs = std::max(maxAbs, raw.maxAbs());
        if (formatClips(format, raw.lo) || formatClips(format, raw.hi)) {
            out.report.add(makeDiagnostic(
                rules::kInputMaySaturate,
                "input " + std::to_string(def.inputIds[i]),
                "observation bound " + fmtRange(raw) + " exceeds the " +
                    format.describe() + " range; the input clips at "
                    "the accelerator boundary"));
        }
    }

    // Propagate through the *quantized* network with quantized value
    // storage — the exact dataflow of the engine's quantized mode.
    const NetworkDef quantized = quantizeDef(def, format);
    const DefAnalysis &a = analyzeDef(quantized);
    a.assertBuildable(quantized);
    a.assertAcyclic();
    std::vector<NodeInterval> bounds;
    networkValueBounds(lanePlan(quantized, a), inputBounds, &format,
                       &bounds);
    for (size_t k = 0; k < bounds.size(); ++k) {
        NodeBound bound{bounds[k], a.ids[a.order[k]], a.slot[a.order[k]]};
        maxAbs = std::max(maxAbs, bound.postActivation.maxAbs());
        bound.maySaturate =
            formatClips(format, bound.postActivation.lo) ||
            formatClips(format, bound.postActivation.hi);
        if (bound.maySaturate) {
            out.report.add(makeDiagnostic(
                rules::kActivationMaySaturate,
                "node " + std::to_string(bound.id),
                "post-activation bound " +
                    fmtRange(bound.postActivation) + " exceeds the " +
                    format.describe() + " range [" +
                    fmtValue(format.minValue()) + ", " +
                    fmtValue(format.maxValue()) + ']'));
        }
        out.nodes.push_back(bound);
    }

    out.guaranteedSafe = out.report.empty();
    out.suggestionValid =
        suggestFormat(maxAbs, format.fracBits, out.suggested);
    return out;
}

} // namespace e3::verify
