#include "env/mountain_car_continuous.hh"

#include <algorithm>
#include <cmath>

#include "common/hot.hh"
#include "common/logging.hh"

namespace e3 {

namespace {

constexpr double minPosition = -1.2;
constexpr double maxPosition = 0.6;
constexpr double maxSpeed = 0.07;
constexpr double goalPosition = 0.45;
constexpr double power = 0.0015;

} // namespace

MountainCarContinuous::MountainCarContinuous()
    : obsSpace_(Space::box({minPosition, -maxSpeed},
                           {maxPosition, maxSpeed})),
      actSpace_(Space::box(1, -1.0, 1.0))
{
}

Observation
MountainCarContinuous::reset(Rng &rng)
{
    position_ = rng.uniform(-0.6, -0.4);
    velocity_ = 0.0;
    done_ = false;
    return {position_, velocity_};
}

E3_HOT StepOutcome
MountainCarContinuous::stepInto(const double *action,
                                double *observation)
{
    e3_assert(!done_,
              "step() on a finished mountain_car_continuous episode");

    const double throttle = std::clamp(action[0], -1.0, 1.0);

    velocity_ += throttle * power - 0.0025 * std::cos(3 * position_);
    velocity_ = std::clamp(velocity_, -maxSpeed, maxSpeed);
    position_ += velocity_;
    position_ = std::clamp(position_, minPosition, maxPosition);
    if (position_ <= minPosition && velocity_ < 0)
        velocity_ = 0.0;

    done_ = position_ >= goalPosition;

    observation[0] = position_;
    observation[1] = velocity_;
    return {-0.1 * throttle * throttle + (done_ ? 100.0 : 0.0), done_};
}

} // namespace e3
