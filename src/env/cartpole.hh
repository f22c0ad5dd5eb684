/**
 * @file
 * CartPole balancing task (gym CartPole-v1 dynamics).
 *
 * A pole is attached by an unactuated joint to a cart on a frictionless
 * track; the agent pushes the cart left or right. Reward is +1 for every
 * step the pole stays within +/-12 degrees and the cart within +/-2.4 m.
 */

#ifndef E3_ENV_CARTPOLE_HH
#define E3_ENV_CARTPOLE_HH

#include <array>

#include "env/environment.hh"

namespace e3 {

/** Env1 in the paper's suite. */
class CartPole : public Environment
{
  public:
    CartPole();

    std::string name() const override { return "cartpole"; }
    const Space &observationSpace() const override { return obsSpace_; }
    const Space &actionSpace() const override { return actSpace_; }
    Observation reset(Rng &rng) override;
    StepOutcome stepInto(const double *action,
                         double *observation) override;
    int maxEpisodeSteps() const override { return 500; }

  private:
    Space obsSpace_;
    Space actSpace_;
    std::array<double, 4> state_{}; ///< x, x_dot, theta, theta_dot
    bool done_ = true;

    void observeInto(double *obs) const;
};

} // namespace e3

#endif // E3_ENV_CARTPOLE_HH
