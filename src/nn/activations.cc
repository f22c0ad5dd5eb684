#include "nn/activations.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace e3 {

double
applyActivation(Activation act, double x)
{
    switch (act) {
      case Activation::Sigmoid:
        return applyActivationT<Activation::Sigmoid>(x);
      case Activation::Tanh:
        return applyActivationT<Activation::Tanh>(x);
      case Activation::ReLU:
        return applyActivationT<Activation::ReLU>(x);
      case Activation::Identity:
        return applyActivationT<Activation::Identity>(x);
      case Activation::Sin:
        return applyActivationT<Activation::Sin>(x);
      case Activation::Gauss:
        return applyActivationT<Activation::Gauss>(x);
      case Activation::Abs:
        return applyActivationT<Activation::Abs>(x);
      case Activation::Clamped:
        return applyActivationT<Activation::Clamped>(x);
    }
    e3_panic("unhandled activation");
}

std::string
activationName(Activation act)
{
    switch (act) {
      case Activation::Sigmoid: return "sigmoid";
      case Activation::Tanh: return "tanh";
      case Activation::ReLU: return "relu";
      case Activation::Identity: return "identity";
      case Activation::Sin: return "sin";
      case Activation::Gauss: return "gauss";
      case Activation::Abs: return "abs";
      case Activation::Clamped: return "clamped";
    }
    e3_panic("unhandled activation");
}

Result<Activation>
parseActivation(const std::string &name)
{
    Activation act;
    if (!tryParseActivation(name, act))
        return Status::error("unknown activation '", name, "'");
    return act;
}

bool
tryParseActivation(std::string_view name, Activation &out)
{
    for (int i = 0; i < numActivations; ++i) {
        const Activation act = activationFromIndex(i);
        if (activationName(act) == name) {
            out = act;
            return true;
        }
    }
    return false;
}

Activation
activationFromIndex(int index)
{
    e3_assert(index >= 0 && index < numActivations,
              "activation index ", index, " out of range");
    return static_cast<Activation>(index);
}

} // namespace e3
