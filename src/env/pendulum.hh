/**
 * @file
 * Inverted-pendulum swing-up with continuous torque (gym Pendulum-v0).
 *
 * The agent applies torque in [-2, 2] to keep the pendulum upright.
 * Reward is the negative quadratic cost on angle error, angular velocity
 * and applied torque; episodes always run the full 200 steps.
 */

#ifndef E3_ENV_PENDULUM_HH
#define E3_ENV_PENDULUM_HH

#include "env/environment.hh"

namespace e3 {

/** Env6 in the paper's suite. */
class Pendulum : public Environment
{
  public:
    Pendulum();

    std::string name() const override { return "pendulum"; }
    const Space &observationSpace() const override { return obsSpace_; }
    const Space &actionSpace() const override { return actSpace_; }
    Observation reset(Rng &rng) override;
    StepOutcome stepInto(const double *action,
                         double *observation) override;
    int maxEpisodeSteps() const override { return 200; }

  private:
    Space obsSpace_;
    Space actSpace_;
    double theta_ = 0.0;
    double thetaDot_ = 0.0;

    void observeInto(double *obs) const;
};

} // namespace e3

#endif // E3_ENV_PENDULUM_HH
