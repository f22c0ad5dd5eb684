#include "serve/latency.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace e3::serve {

namespace {

/** The q-quantile of non-empty, ascending @p sorted, interpolated. */
double
sortedPercentile(const std::vector<double> &sorted, double q)
{
    const double idx = q * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(idx));
    const size_t hi = static_cast<size_t>(std::ceil(idx));
    const double frac = idx - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

} // namespace

void
LatencyRecorder::record(double seconds)
{
    MutexLock lock(mutex_);
    ++offered_;
    // Once the buffer is full, double the stride and drop every other
    // retained sample: memory stays <= maxSamples_ and the kept set
    // remains an even, deterministic thinning of the whole stream.
    if (samples_.size() >= maxSamples_) {
        std::vector<double> kept;
        kept.reserve(samples_.size() / 2 + 1);
        for (size_t i = 0; i < samples_.size(); i += 2)
            kept.push_back(samples_[i]);
        samples_ = std::move(kept);
        stride_ *= 2;
    }
    if ((offered_ - 1) % stride_ == 0)
        samples_.push_back(seconds);
}

size_t
LatencyRecorder::count() const
{
    MutexLock lock(mutex_);
    return offered_;
}

LatencySummary
LatencyRecorder::summarize() const
{
    std::vector<double> samples;
    size_t offered = 0;
    {
        MutexLock lock(mutex_);
        samples = samples_;
        offered = offered_;
    }
    LatencySummary s;
    s.count = offered;
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    s.min = samples.front();
    s.max = samples.back();
    s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
             static_cast<double>(samples.size());
    s.p50 = sortedPercentile(samples, 0.50);
    s.p95 = sortedPercentile(samples, 0.95);
    s.p99 = sortedPercentile(samples, 0.99);
    return s;
}

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    return sortedPercentile(samples, std::clamp(q, 0.0, 1.0));
}

} // namespace e3::serve
