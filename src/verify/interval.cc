#include "verify/interval.hh"

#include <algorithm>
#include <cmath>

#include "common/float_eq.hh"
#include "common/logging.hh"

namespace e3::verify {

namespace {

/**
 * Multiplication with the real-math convention 0 * x == 0 even when x
 * is infinite. Interval endpoints can legitimately be +-inf (an env
 * may declare unbounded observations), but runtime values are always
 * finite, so treating 0 * inf as 0 preserves containment while
 * avoiding NaN endpoints.
 */
double
safeMul(double a, double b)
{
    if (isExactZero(a) || isExactZero(b))
        return 0.0;
    return a * b;
}

} // namespace

Interval
Interval::of(double a, double b)
{
    return a <= b ? Interval{a, b} : Interval{b, a};
}

double
Interval::maxAbs() const
{
    return std::max(std::fabs(lo), std::fabs(hi));
}

Interval
addIntervals(Interval a, Interval b)
{
    return {a.lo + b.lo, a.hi + b.hi};
}

Interval
shiftInterval(Interval v, double c)
{
    return {v.lo + c, v.hi + c};
}

Interval
scaleInterval(Interval v, double w)
{
    if (w >= 0.0)
        return {safeMul(v.lo, w), safeMul(v.hi, w)};
    return {safeMul(v.hi, w), safeMul(v.lo, w)};
}

Interval
mulIntervals(Interval a, Interval b)
{
    double c1 = safeMul(a.lo, b.lo);
    double c2 = safeMul(a.lo, b.hi);
    double c3 = safeMul(a.hi, b.lo);
    double c4 = safeMul(a.hi, b.hi);
    return {std::min(std::min(c1, c2), std::min(c3, c4)),
            std::max(std::max(c1, c2), std::max(c3, c4))};
}

Interval
maxIntervals(Interval a, Interval b)
{
    return {std::max(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval
minIntervals(Interval a, Interval b)
{
    return {std::min(a.lo, b.lo), std::min(a.hi, b.hi)};
}

Interval
aggregateInterval(Aggregation agg, const std::vector<Interval> &contribs)
{
    // Mirrors Aggregator: the accumulator is seeded from the first
    // element for every aggregation kind, and an empty aggregation
    // yields 0.
    if (contribs.empty())
        return Interval::point(0.0);

    Interval acc = contribs[0];
    for (size_t i = 1; i < contribs.size(); ++i) {
        const Interval &v = contribs[i];
        switch (agg) {
        case Aggregation::Sum:
        case Aggregation::Mean:
            acc = addIntervals(acc, v);
            break;
        case Aggregation::Product:
            acc = mulIntervals(acc, v);
            break;
        case Aggregation::Max:
            acc = maxIntervals(acc, v);
            break;
        case Aggregation::Min:
            acc = minIntervals(acc, v);
            break;
        }
    }
    if (agg == Aggregation::Mean) {
        double n = static_cast<double>(contribs.size());
        acc = {acc.lo / n, acc.hi / n};
    }
    return acc;
}

namespace {

/** Bound sin(z) over the (already clamped) z-domain [zlo, zhi]. */
Interval
sinInterval(double zlo, double zhi)
{
    constexpr double kPi = 3.14159265358979323846;
    double slo = std::sin(zlo);
    double shi = std::sin(zhi);
    Interval out = Interval::of(slo, shi);
    // Peak at z = pi/2 + 2k*pi inside the domain pins hi to 1; trough
    // at z = -pi/2 + 2k*pi pins lo to -1.
    double kPeak = std::ceil((zlo - kPi / 2.0) / (2.0 * kPi));
    if (kPi / 2.0 + 2.0 * kPi * kPeak <= zhi)
        out.hi = 1.0;
    double kTrough = std::ceil((zlo + kPi / 2.0) / (2.0 * kPi));
    if (-kPi / 2.0 + 2.0 * kPi * kTrough <= zhi)
        out.lo = -1.0;
    return out;
}

} // namespace

Interval
activationInterval(Activation act, Interval pre)
{
    double fLo = applyActivation(act, pre.lo);
    double fHi = applyActivation(act, pre.hi);
    switch (act) {
    case Activation::Sigmoid:
    case Activation::Tanh:
    case Activation::ReLU:
    case Activation::Identity:
    case Activation::Clamped:
        // Monotone nondecreasing: endpoint evaluation with the
        // runtime's own applyActivation is bit-exact.
        return {fLo, fHi};
    case Activation::Abs:
        if (pre.lo <= 0.0 && pre.hi >= 0.0)
            return {0.0, std::max(fLo, fHi)};
        return Interval::of(fLo, fHi);
    case Activation::Gauss: {
        // exp(-5 z^2) over z = clamp(x, +-3.4): even, peaked at 0,
        // decreasing in |z|.
        Interval out = Interval::of(fLo, fHi);
        if (pre.lo <= 0.0 && pre.hi >= 0.0)
            out.hi = 1.0;
        return out;
    }
    case Activation::Sin: {
        double zlo = std::clamp(5.0 * pre.lo, -60.0, 60.0);
        double zhi = std::clamp(5.0 * pre.hi, -60.0, 60.0);
        return sinInterval(zlo, zhi);
    }
    }
    e3_panic("unhandled activation in activationInterval");
}

std::vector<Interval>
observationIntervals(const Space &space)
{
    std::vector<Interval> out;
    if (space.isDiscrete()) {
        out.push_back(
            {0.0, static_cast<double>(space.count()) - 1.0});
        return out;
    }
    out.reserve(space.size());
    for (size_t i = 0; i < space.size(); ++i)
        out.push_back(Interval::of(space.low()[i], space.high()[i]));
    return out;
}

Interval
quantizeInterval(const FixedPointFormat &format, Interval v)
{
    return {format.quantize(v.lo), format.quantize(v.hi)};
}

std::vector<Interval>
networkValueBounds(const BatchPlan &plan,
                   const std::vector<Interval> &inputBounds,
                   const FixedPointFormat *storage,
                   std::vector<NodeInterval> *nodes)
{
    e3_assert(inputBounds.size() == plan.numInputs,
              "networkValueBounds: input bound count mismatch");
    const auto store = [&](Interval v) {
        return storage ? quantizeInterval(*storage, v) : v;
    };
    std::vector<Interval> values(plan.lanes.front().slotCount,
                                 Interval::point(0.0));
    std::transform(inputBounds.begin(), inputBounds.end(), values.begin(),
                   store);

    std::vector<Interval> contribs;
    plan.forEachNode(0, [&](const BatchPlan::Segment &seg,
                            const BatchPlan::NodeRun &node) {
        contribs.clear();
        for (const BatchPlan::Op &op : plan.opsOf(node))
            contribs.push_back(
                scaleInterval(values[op.srcSlot], op.weight));
        const Interval pre = shiftInterval(
            aggregateInterval(seg.agg, contribs), node.bias);
        const Interval post = activationInterval(seg.act, pre);
        if (nodes)
            nodes->push_back({pre, post});
        values[node.dstSlot] = store(post);
    });
    return values;
}

} // namespace e3::verify
