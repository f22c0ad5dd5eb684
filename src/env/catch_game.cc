#include "env/catch_game.hh"

#include <algorithm>

#include "common/hot.hh"
#include "common/logging.hh"

namespace e3 {

CatchGame::CatchGame()
    : obsSpace_(Space::box(static_cast<size_t>(width) * height, 0.0,
                           1.0)),
      actSpace_(Space::discrete(3))
{
}

void
CatchGame::spawnBall()
{
    ballX_ = static_cast<int>(spawnRng_.uniformInt(
        static_cast<uint64_t>(width)));
    ballY_ = 0;
    drift_ = static_cast<int>(spawnRng_.uniformInt(int64_t{-1},
                                                   int64_t{1}));
}

Observation
CatchGame::reset(Rng &rng)
{
    spawnRng_ = rng.split();
    paddleX_ = (width - paddleWidth) / 2;
    ballsPlayed_ = 0;
    done_ = false;
    spawnBall();
    Observation obs(static_cast<size_t>(width) * height);
    observeInto(obs.data());
    return obs;
}

E3_HOT StepOutcome
CatchGame::stepInto(const double *action, double *observation)
{
    e3_assert(!done_, "step() on a finished catch episode");

    const int a = std::clamp(static_cast<int>(action[0]), 0, 2);
    paddleX_ = std::clamp(paddleX_ + (a - 1), 0,
                          width - paddleWidth);

    // Ball falls one row and drifts, bouncing off the side walls.
    ballY_ += 1;
    ballX_ += drift_;
    if (ballX_ < 0) {
        ballX_ = 0;
        drift_ = -drift_;
    } else if (ballX_ >= width) {
        ballX_ = width - 1;
        drift_ = -drift_;
    }

    double reward = 0.0;
    if (ballY_ >= height - 1) {
        const bool caught = ballX_ >= paddleX_ &&
                            ballX_ < paddleX_ + paddleWidth;
        reward = caught ? 1.0 : -1.0;
        ++ballsPlayed_;
        if (ballsPlayed_ >= ballsPerEpisode)
            done_ = true;
        else
            spawnBall();
    }

    observeInto(observation);
    return {reward, done_};
}

void
CatchGame::observeInto(double *pixels) const
{
    std::fill(pixels, pixels + static_cast<size_t>(width) * height, 0.0);
    const int by = std::min(ballY_, height - 1);
    pixels[static_cast<size_t>(by * width + ballX_)] = 1.0;
    for (int p = 0; p < paddleWidth; ++p) {
        pixels[static_cast<size_t>((height - 1) * width + paddleX_ +
                                   p)] = 1.0;
    }
}

} // namespace e3
