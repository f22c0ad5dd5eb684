#include "env/acrobot.hh"

#include <algorithm>
#include <cmath>

#include "common/hot.hh"
#include "common/logging.hh"

namespace e3 {

namespace {

// Link parameters of gym Acrobot-v1.
constexpr double linkLength1 = 1.0;
constexpr double linkMass1 = 1.0;
constexpr double linkMass2 = 1.0;
constexpr double linkComPos1 = 0.5;
constexpr double linkComPos2 = 0.5;
constexpr double linkMoi = 1.0;
constexpr double g = 9.8;

constexpr double maxVel1 = 4.0 * M_PI;
constexpr double maxVel2 = 9.0 * M_PI;
constexpr double dt = 0.2;

double
wrapAngle(double x)
{
    // Wrap into [-pi, pi).
    const double twoPi = 2.0 * M_PI;
    x = std::fmod(x + M_PI, twoPi);
    if (x < 0)
        x += twoPi;
    return x - M_PI;
}

} // namespace

Acrobot::Acrobot()
    : obsSpace_(Space::box(
          {-1, -1, -1, -1, -maxVel1, -maxVel2},
          {1, 1, 1, 1, maxVel1, maxVel2})),
      actSpace_(Space::discrete(3))
{
}

Observation
Acrobot::reset(Rng &rng)
{
    for (auto &s : state_)
        s = rng.uniform(-0.1, 0.1);
    done_ = false;
    Observation obs(6);
    observeInto(obs.data());
    return obs;
}

std::array<double, 4>
Acrobot::dsdt(const std::array<double, 4> &s, double torque)
{
    const double m1 = linkMass1, m2 = linkMass2;
    const double l1 = linkLength1;
    const double lc1 = linkComPos1, lc2 = linkComPos2;
    const double i1 = linkMoi, i2 = linkMoi;

    const double theta1 = s[0], theta2 = s[1];
    const double dtheta1 = s[2], dtheta2 = s[3];

    const double d1 = m1 * lc1 * lc1 +
                      m2 * (l1 * l1 + lc2 * lc2 +
                            2 * l1 * lc2 * std::cos(theta2)) +
                      i1 + i2;
    const double d2 =
        m2 * (lc2 * lc2 + l1 * lc2 * std::cos(theta2)) + i2;
    const double phi2 =
        m2 * lc2 * g * std::cos(theta1 + theta2 - M_PI / 2.0);
    const double phi1 =
        -m2 * l1 * lc2 * dtheta2 * dtheta2 * std::sin(theta2) -
        2 * m2 * l1 * lc2 * dtheta2 * dtheta1 * std::sin(theta2) +
        (m1 * lc1 + m2 * l1) * g * std::cos(theta1 - M_PI / 2.0) + phi2;

    // "Book" (Sutton & Barto) equations of motion.
    const double ddtheta2 =
        (torque + d2 / d1 * phi1 -
         m2 * l1 * lc2 * dtheta1 * dtheta1 * std::sin(theta2) - phi2) /
        (m2 * lc2 * lc2 + i2 - d2 * d2 / d1);
    const double ddtheta1 = -(d2 * ddtheta2 + phi1) / d1;

    return {dtheta1, dtheta2, ddtheta1, ddtheta2};
}

std::array<double, 4>
Acrobot::rk4(const std::array<double, 4> &s, double torque, double step)
{
    auto axpy = [](const std::array<double, 4> &a, double h,
                   const std::array<double, 4> &d) {
        std::array<double, 4> out;
        for (size_t i = 0; i < 4; ++i)
            out[i] = a[i] + h * d[i];
        return out;
    };

    const auto k1 = dsdt(s, torque);
    const auto k2 = dsdt(axpy(s, step / 2, k1), torque);
    const auto k3 = dsdt(axpy(s, step / 2, k2), torque);
    const auto k4 = dsdt(axpy(s, step, k3), torque);

    std::array<double, 4> out;
    for (size_t i = 0; i < 4; ++i)
        out[i] = s[i] + step / 6.0 * (k1[i] + 2 * k2[i] + 2 * k3[i] +
                                      k4[i]);
    return out;
}

E3_HOT StepOutcome
Acrobot::stepInto(const double *action, double *observation)
{
    e3_assert(!done_, "step() on a finished acrobot episode");

    const int a = std::clamp(static_cast<int>(action[0]), 0, 2);
    const double torque = static_cast<double>(a - 1); // {-1, 0, +1}

    state_ = rk4(state_, torque, dt);

    state_[0] = wrapAngle(state_[0]);
    state_[1] = wrapAngle(state_[1]);
    state_[2] = std::clamp(state_[2], -maxVel1, maxVel1);
    state_[3] = std::clamp(state_[3], -maxVel2, maxVel2);

    // Free end above the bar: -cos(t1) - cos(t1 + t2) > 1.
    done_ = -std::cos(state_[0]) - std::cos(state_[0] + state_[1]) > 1.0;

    observeInto(observation);
    return {done_ ? 0.0 : -1.0, done_};
}

void
Acrobot::observeInto(double *obs) const
{
    obs[0] = std::cos(state_[0]);
    obs[1] = std::sin(state_[0]);
    obs[2] = std::cos(state_[1]);
    obs[3] = std::sin(state_[1]);
    obs[4] = state_[2];
    obs[5] = state_[3];
}

} // namespace e3
