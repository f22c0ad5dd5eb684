/**
 * @file
 * Catch: a minimal Atari-like pixel game (the paper's Sec. VI-A setup
 * mentions "a mix of control benchmarks and Atari games", and its
 * Fig. 11 averages over Env1-Env7).
 *
 * Balls fall one at a time through an 8x10 binary-pixel playfield with
 * a random horizontal drift; the agent slides a 2-pixel paddle along
 * the bottom row (left / stay / right). Catching a ball scores +1,
 * missing scores -1; an episode is 10 balls. The observation is the
 * raw 80-pixel screen, exercising much wider input layers than the
 * control tasks.
 */

#ifndef E3_ENV_CATCH_GAME_HH
#define E3_ENV_CATCH_GAME_HH

#include "env/environment.hh"

namespace e3 {

/** Env7: Atari-like pixel catch game. */
class CatchGame : public Environment
{
  public:
    static constexpr int width = 8;
    static constexpr int height = 10;
    static constexpr int paddleWidth = 2;
    static constexpr int ballsPerEpisode = 10;

    CatchGame();

    std::string name() const override { return "catch"; }
    const Space &observationSpace() const override { return obsSpace_; }
    const Space &actionSpace() const override { return actSpace_; }
    Observation reset(Rng &rng) override;
    StepOutcome stepInto(const double *action,
                         double *observation) override;
    int maxEpisodeSteps() const override
    {
        return (height + 2) * ballsPerEpisode;
    }

  private:
    Space obsSpace_;
    Space actSpace_;

    int ballX_ = 0;
    int ballY_ = 0;
    int drift_ = 0;   ///< -1, 0 or +1 horizontal motion per fall step
    int paddleX_ = 0; ///< leftmost paddle pixel
    int ballsPlayed_ = 0;
    bool done_ = true;
    Rng spawnRng_{0}; ///< private stream split from reset()'s rng

    void spawnBall();
    void observeInto(double *obs) const;
};

} // namespace e3

#endif // E3_ENV_CATCH_GAME_HH
