#include "env/bipedal_walker.hh"

#include <algorithm>
#include <cmath>

#include "common/hot.hh"
#include "common/logging.hh"

namespace e3 {

namespace {

constexpr double dt = 0.02;       ///< 50 FPS, matching gym
constexpr double jointSpeed = 4.0; ///< max joint angular speed, rad/s
constexpr double hipRange = 1.0;   ///< |hip| limit
constexpr double kneeLo = 0.1;     ///< knee cannot hyper-extend
constexpr double kneeHi = 1.2;
constexpr double thighLen = 0.45;
constexpr double shinLen = 0.5;
constexpr double hullTipLimit = 0.9; ///< fall when |hull angle| exceeds
constexpr double strideGain = 2.5;   ///< stance sweep -> forward speed
constexpr double torqueCost = 0.008; ///< per unit |action| per step
constexpr double progressGain = 6.0; ///< reward per unit forward travel
constexpr int lidarRays = 10;

// Hull (4) + two legs (5 each) + lidar: observeInto writes exactly the
// 24 values the observation space declares.
static_assert(4 + 2 * 5 + lidarRays == 24,
              "bipedal observation must be 24-dim");

} // namespace

BipedalWalker::BipedalWalker()
    : obsSpace_(Space::box(24, -5.0, 5.0)),
      actSpace_(Space::box(4, -1.0, 1.0))
{
}

double
BipedalWalker::footDrop(const Leg &leg)
{
    // Planar two-segment leg hanging from the hip: vertical extent of
    // thigh plus shin. A straight vertical leg gives the maximum drop.
    return thighLen * std::cos(leg.hip) +
           shinLen * std::cos(leg.hip + leg.knee);
}

Observation
BipedalWalker::reset(Rng &rng)
{
    hullAngle_ = rng.uniform(-0.05, 0.05);
    hullAngVel_ = 0.0;
    vx_ = 0.0;
    vy_ = 0.0;
    xPos_ = 0.0;
    for (auto &leg : legs_) {
        leg.hip = rng.uniform(-0.1, 0.1);
        leg.hipVel = 0.0;
        leg.knee = kneeLo + rng.uniform(0.0, 0.2);
        leg.kneeVel = 0.0;
        leg.contact = false;
    }
    done_ = false;
    Observation obs(24);
    observeInto(obs.data());
    return obs;
}

E3_HOT StepOutcome
BipedalWalker::stepInto(const double *action, double *observation)
{
    e3_assert(!done_, "step() on a finished bipedal_walker episode");

    std::array<double, 4> a;
    for (size_t i = 0; i < 4; ++i)
        a[i] = std::clamp(action[i], -1.0, 1.0);

    // Joints are velocity servos, as in gym's motorSpeed control. The
    // effective joint velocity is the realized angle change: a joint
    // pinned at its limit moves (and propels) nothing regardless of the
    // commanded speed.
    for (size_t i = 0; i < 2; ++i) {
        Leg &leg = legs_[i];
        const double newHip = std::clamp(
            leg.hip + a[2 * i] * jointSpeed * dt, -hipRange, hipRange);
        const double newKnee = std::clamp(
            leg.knee + a[2 * i + 1] * jointSpeed * dt, kneeLo, kneeHi);
        leg.hipVel = (newHip - leg.hip) / dt;
        leg.kneeVel = (newKnee - leg.knee) / dt;
        leg.hip = newHip;
        leg.knee = newKnee;
    }

    // Stance assignment: the leg reaching lower supports the hull.
    const double drop0 = footDrop(legs_[0]);
    const double drop1 = footDrop(legs_[1]);
    const double support = std::max(drop0, drop1);
    legs_[0].contact = drop0 >= support - 0.02;
    legs_[1].contact = drop1 >= support - 0.02;

    // A stance leg sweeping backward (hipVel < 0) propels the hull
    // forward; a stance leg sweeping forward brakes. Swing legs do not
    // touch the ground and contribute nothing.
    double drive = 0.0;
    for (const Leg &leg : legs_) {
        if (leg.contact)
            drive += -leg.hipVel * thighLen * std::cos(leg.hip);
    }
    vx_ += (strideGain * drive - 1.5 * vx_) * dt; // ground drag
    xPos_ += vx_ * dt;

    // Hull pitch follows the net hip reaction torque plus a gravity
    // restoring term; vertical speed follows the change in support
    // height.
    const double reaction = -(a[0] + a[2]) * 0.8;
    hullAngVel_ += (reaction - 6.0 * hullAngle_ - 1.2 * hullAngVel_) * dt;
    hullAngle_ += hullAngVel_ * dt;
    vy_ = (support - (thighLen + shinLen)) * 0.5;

    // Falling: hull tips over, or both legs collapse under the hull.
    const bool collapsed = support < 0.35;
    const bool tipped = std::fabs(hullAngle_) > hullTipLimit;

    double reward = progressGain * vx_ * dt;
    reward -= torqueCost *
              (std::fabs(a[0]) + std::fabs(a[1]) + std::fabs(a[2]) +
               std::fabs(a[3]));
    reward -= 5.0 * std::fabs(hullAngle_) * dt; // posture shaping

    if (collapsed || tipped) {
        done_ = true;
        reward = -100.0;
    }

    observeInto(observation);
    return {reward, done_};
}

void
BipedalWalker::observeInto(double *obs) const
{
    size_t n = 0;
    obs[n++] = hullAngle_;
    obs[n++] = hullAngVel_;
    obs[n++] = vx_;
    obs[n++] = vy_;
    for (const Leg &leg : legs_) {
        obs[n++] = leg.hip;
        obs[n++] = leg.hipVel / jointSpeed;
        obs[n++] = leg.knee;
        obs[n++] = leg.kneeVel / jointSpeed;
        obs[n++] = leg.contact ? 1.0 : 0.0;
    }
    // Flat terrain: each lidar ray reports the distance at which it meets
    // the ground, a function of ray angle and hull pitch only.
    for (int i = 0; i < lidarRays; ++i) {
        const double rayAngle =
            hullAngle_ + 0.15 * static_cast<double>(i);
        obs[n++] = std::clamp(1.0 / std::max(std::cos(rayAngle), 0.1),
                              0.0, 5.0);
    }
}

} // namespace e3
