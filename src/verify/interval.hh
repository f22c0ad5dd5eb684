/**
 * @file
 * Interval abstract interpretation over compiled networks.
 *
 * The verifier's numeric pass propagates [lo, hi] bounds from an
 * environment's observation space through every aggregation and
 * activation of a compiled lane program (BatchPlan), yielding a sound
 * static bound for every value-array slot. "Sound" leans on two facts
 * about IEEE round-to-nearest: rounding is monotone (so folding the same
 * +,*,min,max chain over interval endpoints in the runtime's exact
 * link order bounds the runtime's folds), and activation endpoints are
 * evaluated with the very applyActivation() the runtime uses, so
 * monotone activations are bounded bit-exactly. The non-monotone
 * activations (sin, gauss) are bounded by endpoint + critical-point
 * analysis, tight to a library ulp.
 */

#ifndef E3_VERIFY_INTERVAL_HH
#define E3_VERIFY_INTERVAL_HH

#include <vector>

#include "env/space.hh"
#include "nn/batch_eval.hh"
#include "nn/quantize.hh"

namespace e3::verify {

/** A closed interval [lo, hi]; lo <= hi for every constructed value. */
struct Interval
{
    double lo = 0.0;
    double hi = 0.0;

    static Interval point(double v) { return {v, v}; }

    /** Ordered construction from two unordered endpoints. */
    static Interval of(double a, double b);

    bool contains(double v, double eps = 0.0) const
    {
        return v >= lo - eps && v <= hi + eps;
    }

    /** max(|lo|, |hi|). */
    double maxAbs() const;
};

/** [a.lo + b.lo, a.hi + b.hi]. */
Interval addIntervals(Interval a, Interval b);

/** Shift both endpoints by a constant (the bias add). */
Interval shiftInterval(Interval v, double c);

/**
 * Multiply by a constant weight (sign-aware). 0 * x is 0 even for
 * infinite bounds: runtime values are always finite, so the real-math
 * identity holds for containment.
 */
Interval scaleInterval(Interval v, double w);

/** Interval product (4-corner, 0-safe). */
Interval mulIntervals(Interval a, Interval b);

/** Bound of max(a, b) over independent variables. */
Interval maxIntervals(Interval a, Interval b);

/** Bound of min(a, b) over independent variables. */
Interval minIntervals(Interval a, Interval b);

/**
 * Bound an aggregation over per-link contribution intervals,
 * mirroring the runtime Aggregator fold (seed from the first element,
 * fold in order; empty aggregations yield 0).
 */
Interval aggregateInterval(Aggregation agg,
                           const std::vector<Interval> &contribs);

/** Bound applyActivation(act, x) over x in @p pre. */
Interval activationInterval(Activation act, Interval pre);

/**
 * Per-element observation bounds of a space. Box spaces use their
 * declared low/high; a Discrete space is the single index interval
 * [0, count - 1].
 */
std::vector<Interval> observationIntervals(const Space &space);

/** Endpoint-quantized interval (quantize is monotone). */
Interval quantizeInterval(const FixedPointFormat &format, Interval v);

/** Static bounds of one compiled node, before value storage. */
struct NodeInterval
{
    Interval preActivation;
    Interval postActivation;
};

/**
 * Propagate input bounds through lane 0 of a compiled feed-forward
 * plan (for one network, Network::plan()) and bound every value-array
 * slot: slots [0, numInputs) carry the given input bounds, each
 * compiled node's slot the bound of its stored post-activation value.
 * The result is indexed exactly like Network::values(), so a runtime
 * activation can be checked against its static bound slot for slot.
 *
 * With @p storage, inputs and activated outputs are stored quantized
 * to that format, as the engine's quantized mode stores them (the MAC
 * stays full precision). With @p nodes, every node's pre- and
 * post-activation bound is appended in execution order.
 * @pre inputBounds.size() == plan.numInputs
 */
std::vector<Interval>
networkValueBounds(const BatchPlan &plan,
                   const std::vector<Interval> &inputBounds,
                   const FixedPointFormat *storage = nullptr,
                   std::vector<NodeInterval> *nodes = nullptr);

} // namespace e3::verify

#endif // E3_VERIFY_INTERVAL_HH
