#include "env/mountain_car.hh"

#include <algorithm>
#include <cmath>

#include "common/hot.hh"
#include "common/logging.hh"

namespace e3 {

namespace {

constexpr double minPosition = -1.2;
constexpr double maxPosition = 0.6;
constexpr double maxSpeed = 0.07;
constexpr double goalPosition = 0.5;
constexpr double force = 0.001;
constexpr double gravity = 0.0025;

} // namespace

MountainCar::MountainCar()
    : obsSpace_(Space::box({minPosition, -maxSpeed},
                           {maxPosition, maxSpeed})),
      actSpace_(Space::discrete(3))
{
}

Observation
MountainCar::reset(Rng &rng)
{
    position_ = rng.uniform(-0.6, -0.4);
    velocity_ = 0.0;
    done_ = false;
    return {position_, velocity_};
}

E3_HOT StepOutcome
MountainCar::stepInto(const double *action, double *observation)
{
    e3_assert(!done_, "step() on a finished mountain_car episode");

    const int a = std::clamp(static_cast<int>(action[0]), 0, 2);

    velocity_ += (a - 1) * force - std::cos(3 * position_) * gravity;
    velocity_ = std::clamp(velocity_, -maxSpeed, maxSpeed);
    position_ += velocity_;
    position_ = std::clamp(position_, minPosition, maxPosition);
    if (position_ <= minPosition && velocity_ < 0)
        velocity_ = 0.0; // inelastic left wall

    done_ = position_ >= goalPosition;

    observation[0] = position_;
    observation[1] = velocity_;
    return {-1.0, done_};
}

} // namespace e3
