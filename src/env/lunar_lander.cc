#include "env/lunar_lander.hh"

#include <algorithm>
#include <cmath>

#include "common/hot.hh"
#include "common/logging.hh"

namespace e3 {

namespace {

// Scaled dynamics: distances in pad-units (pad at origin, spawn height
// 1.4), one step = 50 ms of simulated time.
constexpr double dt = 0.05;
constexpr double gravity = 1.0;        ///< downward accel, units/s^2
constexpr double mainAccel = 2.0;      ///< main engine accel along body
constexpr double sideAccel = 0.4;      ///< lateral accel of side engines
constexpr double sideTorque = 1.6;     ///< angular accel of side engines
constexpr double angularDamping = 0.4; ///< passive rotational damping
constexpr double spawnHeight = 1.4;
constexpr double fieldLimit = 1.5;     ///< |x| beyond this is out of range

// Touchdown tolerances: soft enough to be reachable, hard enough that an
// uncontrolled drop crashes.
constexpr double safeVx = 0.3;
constexpr double safeVy = 0.5;
constexpr double safeAngle = 0.35;

} // namespace

LunarLander::LunarLander()
    // The angle bound must be truthful for the verifier's interval
    // analysis to be sound: the angle integrates unwrapped, and at the
    // maximum angular rate (|vAngle| capped only by side-engine torque
    // over a 1000-step episode) it stays within +-201 rad. All other
    // elements are genuine dynamic ranges.
    : obsSpace_(Space::box(
          {-2, -1, -5, -5, -201, -8, 0, 0},
          {2, 3, 5, 5, 201, 8, 1, 1})),
      actSpace_(Space::discrete(4))
{
}

Observation
LunarLander::reset(Rng &rng)
{
    x_ = rng.uniform(-0.3, 0.3);
    y_ = spawnHeight;
    // Initial nudge mirrors gym's randomized spawn impulse.
    vx_ = rng.uniform(-0.3, 0.3);
    vy_ = rng.uniform(-0.2, 0.0);
    angle_ = rng.uniform(-0.1, 0.1);
    vAngle_ = rng.uniform(-0.1, 0.1);
    leg1_ = leg2_ = false;
    hasPrevShaping_ = false;
    done_ = false;
    Observation obs(8);
    observeInto(obs.data());
    return obs;
}

double
LunarLander::shaping() const
{
    // Same potential as gym LunarLander-v2.
    return -100.0 * std::sqrt(x_ * x_ + y_ * y_) -
           100.0 * std::sqrt(vx_ * vx_ + vy_ * vy_) -
           100.0 * std::fabs(angle_) + 10.0 * (leg1_ ? 1 : 0) +
           10.0 * (leg2_ ? 1 : 0);
}

void
LunarLander::updateLegContacts()
{
    const bool nearGround = y_ <= 0.03;
    // A tilted craft touches one leg first.
    leg1_ = nearGround && angle_ < safeAngle;   // left leg
    leg2_ = nearGround && angle_ > -safeAngle;  // right leg
}

E3_HOT StepOutcome
LunarLander::stepInto(const double *action, double *observation)
{
    e3_assert(!done_, "step() on a finished lunar_lander episode");

    const int a = std::clamp(static_cast<int>(action[0]), 0, 3);

    double fuelCost = 0.0;
    double ax = 0.0;
    double ay = -gravity;
    double aAngle = -angularDamping * vAngle_;

    if (a == 2) { // main engine: thrust along the body's up axis
        ax += -std::sin(angle_) * mainAccel;
        ay += std::cos(angle_) * mainAccel;
        fuelCost = 0.30;
    } else if (a == 1) { // left engine: push right, rotate ccw
        ax += std::cos(angle_) * sideAccel;
        ay += std::sin(angle_) * sideAccel;
        aAngle += sideTorque;
        fuelCost = 0.03;
    } else if (a == 3) { // right engine: push left, rotate cw
        ax += -std::cos(angle_) * sideAccel;
        ay += -std::sin(angle_) * sideAccel;
        aAngle += -sideTorque;
        fuelCost = 0.03;
    }

    vx_ += ax * dt;
    vy_ += ay * dt;
    vAngle_ += aAngle * dt;
    x_ += vx_ * dt;
    y_ += vy_ * dt;
    angle_ += vAngle_ * dt;

    updateLegContacts();

    double reward = 0.0;
    const double shaped = shaping();
    if (hasPrevShaping_)
        reward = shaped - prevShaping_;
    prevShaping_ = shaped;
    hasPrevShaping_ = true;
    reward -= fuelCost;

    if (y_ <= 0.0) {
        y_ = 0.0;
        const bool gentle = std::fabs(vx_) <= safeVx &&
                            std::fabs(vy_) <= safeVy &&
                            std::fabs(angle_) <= safeAngle;
        done_ = true;
        const bool onPad = std::fabs(x_) <= 0.4;
        reward += gentle && onPad ? 100.0 : -100.0;
    } else if (std::fabs(x_) > fieldLimit || y_ > 2.5) {
        done_ = true;
        reward += -100.0;
    }

    observeInto(observation);
    return {reward, done_};
}

void
LunarLander::observeInto(double *obs) const
{
    obs[0] = x_;
    obs[1] = y_;
    obs[2] = vx_;
    obs[3] = vy_;
    obs[4] = angle_;
    obs[5] = vAngle_;
    obs[6] = leg1_ ? 1.0 : 0.0;
    obs[7] = leg2_ ? 1.0 : 0.0;
}

} // namespace e3
