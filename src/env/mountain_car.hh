/**
 * @file
 * Mountain-car task with discrete actions (gym MountainCar-v0).
 *
 * An underpowered car must rock back and forth in a valley to build
 * enough momentum to reach the flag on the right hill. Reward is -1 per
 * step until the goal position is reached.
 */

#ifndef E3_ENV_MOUNTAIN_CAR_HH
#define E3_ENV_MOUNTAIN_CAR_HH

#include "env/environment.hh"

namespace e3 {

/** Env3 in the paper's suite. */
class MountainCar : public Environment
{
  public:
    MountainCar();

    std::string name() const override { return "mountain_car"; }
    const Space &observationSpace() const override { return obsSpace_; }
    const Space &actionSpace() const override { return actSpace_; }
    Observation reset(Rng &rng) override;
    StepOutcome stepInto(const double *action,
                         double *observation) override;
    int maxEpisodeSteps() const override { return 200; }

  private:
    Space obsSpace_;
    Space actSpace_;
    double position_ = 0.0;
    double velocity_ = 0.0;
    bool done_ = true;
};

} // namespace e3

#endif // E3_ENV_MOUNTAIN_CAR_HH
