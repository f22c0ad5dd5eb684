/**
 * @file
 * Acrobot swing-up task (gym Acrobot-v1 dynamics, "book" variant).
 *
 * A two-link underactuated pendulum; torque is applied at the joint
 * between the links. The goal is to swing the free end above a target
 * height. Reward is -1 per step until the goal is reached.
 */

#ifndef E3_ENV_ACROBOT_HH
#define E3_ENV_ACROBOT_HH

#include <array>

#include "env/environment.hh"

namespace e3 {

/** Env2 in the paper's suite. */
class Acrobot : public Environment
{
  public:
    Acrobot();

    std::string name() const override { return "acrobot"; }
    const Space &observationSpace() const override { return obsSpace_; }
    const Space &actionSpace() const override { return actSpace_; }
    Observation reset(Rng &rng) override;
    StepOutcome stepInto(const double *action,
                         double *observation) override;
    int maxEpisodeSteps() const override { return 500; }

  private:
    Space obsSpace_;
    Space actSpace_;
    std::array<double, 4> state_{}; ///< theta1, theta2, dtheta1, dtheta2
    bool done_ = true;

    void observeInto(double *obs) const;

    /** Equations of motion (Sutton's book formulation). */
    static std::array<double, 4> dsdt(const std::array<double, 4> &s,
                                      double torque);

    /** One RK4 integration step of length dt. */
    static std::array<double, 4> rk4(const std::array<double, 4> &s,
                                     double torque, double dt);
};

} // namespace e3

#endif // E3_ENV_ACROBOT_HH
