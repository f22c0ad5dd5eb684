/**
 * @file
 * Bipedal-walker task (substitute for gym BipedalWalker-v3).
 *
 * gym's walker is a Box2D articulated body. This implementation keeps the
 * identical interface — 24-dim observation (hull angle/velocities, two
 * legs x {hip, knee} angles and speeds, ground contacts, 10 lidar
 * returns) and 4 continuous joint commands in [-1, 1] — but replaces the
 * rigid-body engine with a kinematic gait model: joints are
 * velocity-servoed by the actions, stance legs propel the hull
 * proportionally to their backward sweep, the hull pitches with the
 * asymmetry of applied torques, and the episode ends with a -100 penalty
 * if the hull tips over or the legs collapse. Reward is forward progress
 * minus torque cost minus a posture penalty, the same structure as gym.
 * See DESIGN.md §3 for the substitution rationale.
 */

#ifndef E3_ENV_BIPEDAL_WALKER_HH
#define E3_ENV_BIPEDAL_WALKER_HH

#include <array>

#include "env/environment.hh"

namespace e3 {

/** Env4 in the paper's suite. */
class BipedalWalker : public Environment
{
  public:
    BipedalWalker();

    std::string name() const override { return "bipedal_walker"; }
    const Space &observationSpace() const override { return obsSpace_; }
    const Space &actionSpace() const override { return actSpace_; }
    Observation reset(Rng &rng) override;
    StepOutcome stepInto(const double *action,
                         double *observation) override;
    int maxEpisodeSteps() const override { return 1600; }

  private:
    struct Leg
    {
        double hip = 0.0;     ///< hip angle, + is forward swing
        double hipVel = 0.0;
        double knee = 0.0;    ///< knee angle, 0 straight, + is flexed
        double kneeVel = 0.0;
        bool contact = false;
    };

    Space obsSpace_;
    Space actSpace_;

    double hullAngle_ = 0.0;
    double hullAngVel_ = 0.0;
    double vx_ = 0.0;
    double vy_ = 0.0;
    double xPos_ = 0.0;
    std::array<Leg, 2> legs_;
    bool done_ = true;

    void observeInto(double *obs) const;

    /** Height of a foot below the hip joint for the given leg pose. */
    static double footDrop(const Leg &leg);
};

} // namespace e3

#endif // E3_ENV_BIPEDAL_WALKER_HH
