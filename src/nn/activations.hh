/**
 * @file
 * Node activation functions for evolved networks.
 *
 * The set mirrors neat-python's default activation repertoire; NEAT's
 * activation mutation picks among whichever subset the experiment config
 * allows. Each PE in INAX contains one activation unit applying exactly
 * these functions (paper Sec. IV-E).
 */

#ifndef E3_NN_ACTIVATIONS_HH
#define E3_NN_ACTIVATIONS_HH

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>

#include "common/result.hh"

namespace e3 {

/** Supported node activation functions. */
enum class Activation
{
    Sigmoid,  ///< 1 / (1 + exp(-4.9 x)) — neat-python's scaled sigmoid
    Tanh,     ///< tanh(2.5 x), matching neat-python's scaling
    ReLU,
    Identity,
    Sin,      ///< sin(5 x)
    Gauss,    ///< exp(-5 x^2)
    Abs,
    Clamped,  ///< clamp(x, -1, 1)
};

/**
 * Number of Activation enumerators — the bound the batch-plan
 * verifier checks dispatch completeness against. Keep in lockstep
 * with the enum (and the switch in BatchNetwork::runLane).
 */
inline constexpr int kActivationCount = 8;

/** Apply an activation to a pre-activation value. */
double applyActivation(Activation act, double x);

/**
 * Compile-time-dispatched twin of applyActivation() for inner loops
 * that hoist the activation switch out of their node loop (the SoA
 * batch engine dispatches once per segment). applyActivation()
 * delegates to these instantiations, so the two are bit-identical by
 * construction — there is exactly one copy of each formula.
 */
template <Activation A>
inline double
applyActivationT(double x)
{
    if constexpr (A == Activation::Sigmoid) {
        // neat-python clamps the argument to keep exp() in range.
        const double z = std::clamp(4.9 * x, -60.0, 60.0);
        return 1.0 / (1.0 + std::exp(-z));
    } else if constexpr (A == Activation::Tanh) {
        const double z = std::clamp(2.5 * x, -60.0, 60.0);
        return std::tanh(z);
    } else if constexpr (A == Activation::ReLU) {
        return x > 0.0 ? x : 0.0;
    } else if constexpr (A == Activation::Identity) {
        return x;
    } else if constexpr (A == Activation::Sin) {
        const double z = std::clamp(5.0 * x, -60.0, 60.0);
        return std::sin(z);
    } else if constexpr (A == Activation::Gauss) {
        const double z = std::clamp(x, -3.4, 3.4);
        return std::exp(-5.0 * z * z);
    } else if constexpr (A == Activation::Abs) {
        return std::fabs(x);
    } else {
        static_assert(A == Activation::Clamped, "unhandled activation");
        return std::clamp(x, -1.0, 1.0);
    }
}

/** Stable lowercase name, e.g. "sigmoid". */
std::string activationName(Activation act);

/** Parse a name produced by activationName(); error on unknown. */
Result<Activation> parseActivation(const std::string &name);

/**
 * Parse a name into @p out and return true; false on unknown names
 * (for load paths that must not terminate the process).
 */
bool tryParseActivation(std::string_view name, Activation &out);

/** Number of distinct activations (for mutation sampling). */
constexpr int numActivations = 8;

/** Map a dense index [0, numActivations) to an Activation. */
Activation activationFromIndex(int index);

} // namespace e3

#endif // E3_NN_ACTIVATIONS_HH
