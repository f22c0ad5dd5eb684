/**
 * @file
 * Lunar-lander task (substitute for gym LunarLander-v2).
 *
 * gym's lander runs on Box2D. This implementation replaces the rigid-body
 * engine with planar point-mass-plus-orientation dynamics while keeping
 * the identical 8-dim observation vector, 4 discrete actions, and the
 * same potential-based reward shaping (distance, speed, tilt, leg
 * contact, fuel cost, +/-100 terminal bonus), so agents face the same
 * control problem shape: kill horizontal drift, arrest descent, stay
 * upright, settle on the pad. See DESIGN.md §3 for the substitution
 * rationale.
 */

#ifndef E3_ENV_LUNAR_LANDER_HH
#define E3_ENV_LUNAR_LANDER_HH

#include "env/environment.hh"

namespace e3 {

/** Env5 in the paper's suite. */
class LunarLander : public Environment
{
  public:
    LunarLander();

    std::string name() const override { return "lunar_lander"; }
    const Space &observationSpace() const override { return obsSpace_; }
    const Space &actionSpace() const override { return actSpace_; }
    Observation reset(Rng &rng) override;
    StepOutcome stepInto(const double *action,
                         double *observation) override;
    int maxEpisodeSteps() const override { return 1000; }

  private:
    Space obsSpace_;
    Space actSpace_;

    double x_ = 0.0, y_ = 0.0;       ///< position (pad at origin)
    double vx_ = 0.0, vy_ = 0.0;     ///< velocity
    double angle_ = 0.0, vAngle_ = 0.0;
    bool leg1_ = false, leg2_ = false;
    double prevShaping_ = 0.0;
    bool hasPrevShaping_ = false;
    bool done_ = true;

    void observeInto(double *obs) const;
    double shaping() const;
    void updateLegContacts();
};

} // namespace e3

#endif // E3_ENV_LUNAR_LANDER_HH
