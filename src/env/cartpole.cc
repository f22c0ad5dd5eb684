#include "env/cartpole.hh"

#include <cmath>

#include "common/hot.hh"
#include "common/logging.hh"

namespace e3 {

namespace {

// Physical constants of gym CartPole-v1.
constexpr double gravity = 9.8;
constexpr double massCart = 1.0;
constexpr double massPole = 0.1;
constexpr double totalMass = massCart + massPole;
constexpr double halfPoleLength = 0.5;
constexpr double poleMassLength = massPole * halfPoleLength;
constexpr double forceMag = 10.0;
constexpr double tau = 0.02; // seconds between state updates

constexpr double thetaLimit = 12.0 * 2.0 * M_PI / 360.0;
constexpr double xLimit = 2.4;

} // namespace

CartPole::CartPole()
    : obsSpace_(Space::box(
          {-2 * xLimit, -1e9, -2 * thetaLimit, -1e9},
          {2 * xLimit, 1e9, 2 * thetaLimit, 1e9})),
      actSpace_(Space::discrete(2))
{
}

Observation
CartPole::reset(Rng &rng)
{
    for (auto &s : state_)
        s = rng.uniform(-0.05, 0.05);
    done_ = false;
    Observation obs(4);
    observeInto(obs.data());
    return obs;
}

E3_HOT StepOutcome
CartPole::stepInto(const double *action, double *observation)
{
    e3_assert(!done_, "step() on a finished cartpole episode");

    const int a = static_cast<int>(action[0]);
    const double force = a == 1 ? forceMag : -forceMag;

    double x = state_[0];
    double x_dot = state_[1];
    double theta = state_[2];
    double theta_dot = state_[3];

    const double cos_t = std::cos(theta);
    const double sin_t = std::sin(theta);

    // Semi-implicit dynamics per Barto, Sutton & Anderson (gym "euler").
    const double temp =
        (force + poleMassLength * theta_dot * theta_dot * sin_t) /
        totalMass;
    const double theta_acc =
        (gravity * sin_t - cos_t * temp) /
        (halfPoleLength *
         (4.0 / 3.0 - massPole * cos_t * cos_t / totalMass));
    const double x_acc =
        temp - poleMassLength * theta_acc * cos_t / totalMass;

    x += tau * x_dot;
    x_dot += tau * x_acc;
    theta += tau * theta_dot;
    theta_dot += tau * theta_acc;

    state_ = {x, x_dot, theta, theta_dot};

    done_ = x < -xLimit || x > xLimit || theta < -thetaLimit ||
            theta > thetaLimit;

    observeInto(observation);
    return {1.0, done_};
}

void
CartPole::observeInto(double *obs) const
{
    for (size_t i = 0; i < state_.size(); ++i)
        obs[i] = state_[i];
}

} // namespace e3
