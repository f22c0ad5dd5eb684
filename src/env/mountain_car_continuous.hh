/**
 * @file
 * Mountain-car task with a continuous throttle action
 * (gym MountainCarContinuous-v0).
 *
 * Same valley as MountainCar, but the action is a real-valued force in
 * [-1, 1] and the reward charges quadratic actuation cost with a +100
 * bonus at the goal, so lazy solutions score higher.
 */

#ifndef E3_ENV_MOUNTAIN_CAR_CONTINUOUS_HH
#define E3_ENV_MOUNTAIN_CAR_CONTINUOUS_HH

#include "env/environment.hh"

namespace e3 {

/** Continuous-control variant used by the continuous-action examples. */
class MountainCarContinuous : public Environment
{
  public:
    MountainCarContinuous();

    std::string name() const override { return "mountain_car_continuous"; }
    const Space &observationSpace() const override { return obsSpace_; }
    const Space &actionSpace() const override { return actSpace_; }
    Observation reset(Rng &rng) override;
    StepOutcome stepInto(const double *action,
                         double *observation) override;
    int maxEpisodeSteps() const override { return 999; }

  private:
    Space obsSpace_;
    Space actSpace_;
    double position_ = 0.0;
    double velocity_ = 0.0;
    bool done_ = true;
};

} // namespace e3

#endif // E3_ENV_MOUNTAIN_CAR_CONTINUOUS_HH
