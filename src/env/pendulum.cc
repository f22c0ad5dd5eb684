#include "env/pendulum.hh"

#include <algorithm>
#include <cmath>

#include "common/hot.hh"
#include "common/logging.hh"

namespace e3 {

namespace {

constexpr double maxSpeed = 8.0;
constexpr double maxTorque = 2.0;
constexpr double dt = 0.05;
constexpr double g = 10.0;
constexpr double m = 1.0;
constexpr double l = 1.0;

double
angleNormalize(double x)
{
    const double twoPi = 2.0 * M_PI;
    x = std::fmod(x + M_PI, twoPi);
    if (x < 0)
        x += twoPi;
    return x - M_PI;
}

} // namespace

Pendulum::Pendulum()
    : obsSpace_(Space::box({-1, -1, -maxSpeed}, {1, 1, maxSpeed})),
      actSpace_(Space::box(1, -maxTorque, maxTorque))
{
}

Observation
Pendulum::reset(Rng &rng)
{
    theta_ = rng.uniform(-M_PI, M_PI);
    thetaDot_ = rng.uniform(-1.0, 1.0);
    Observation obs(3);
    observeInto(obs.data());
    return obs;
}

E3_HOT StepOutcome
Pendulum::stepInto(const double *action, double *observation)
{
    const double u = std::clamp(action[0], -maxTorque, maxTorque);

    const double th = theta_;
    const double cost = angleNormalize(th) * angleNormalize(th) +
                        0.1 * thetaDot_ * thetaDot_ + 0.001 * u * u;

    // gym Pendulum-v0 semi-implicit update (theta measured from "down"
    // via the th + pi term).
    double newThetaDot =
        thetaDot_ + (-3.0 * g / (2.0 * l) * std::sin(th + M_PI) +
                     3.0 / (m * l * l) * u) *
                        dt;
    newThetaDot = std::clamp(newThetaDot, -maxSpeed, maxSpeed);
    theta_ = th + newThetaDot * dt;
    thetaDot_ = newThetaDot;

    observeInto(observation);
    return {-cost, false}; // pendulum only truncates at the step cap
}

void
Pendulum::observeInto(double *obs) const
{
    obs[0] = std::cos(theta_);
    obs[1] = std::sin(theta_);
    obs[2] = thetaDot_;
}

} // namespace e3
