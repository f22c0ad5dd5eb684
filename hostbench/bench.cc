#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace e3::hostbench {

void
Report::fail(const std::string &why)
{
    correct = false;
    problems.push_back(why);
}

void
Report::set(const std::string &name, double value, const std::string &unit)
{
    for (auto &[key, entry] : metrics) {
        if (key == name) {
            entry = {value, unit};
            return;
        }
    }
    metrics.push_back({name, {value, unit}});
}

std::string
Report::json() const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, entry] : metrics) {
        const double value = std::isfinite(entry.first) ? entry.first : 1e9;
        char number[64];
        std::snprintf(number, sizeof number, "%.17g", value);
        out += first ? "" : ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": " + number +
               ", \"unit\": \"" + entry.second + "\"}";
    }
    out += "}}";
    return out;
}

namespace {

/** Names and units of the per-layer metrics, in print order. */
const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    // Time metrics of the evolve layers are host ms per generation,
    // averaged over the traced driver's generations; counts are totals
    // over the traced repetitions (fixed seeds, so they repeat exactly).
    static const std::vector<std::pair<std::string, std::string>> kAll = {
        {"lat_tail_ms", "ms"},
        {"e3.generation_ms", "ms"},
        {"nn.decode_ms", "ms"},
        {"nn.netstats_ms", "ms"},
        {"nn.compile_ms", "ms"},
        {"nn.compiled_conns", "count"},
        {"neat.stats_ms", "ms"},
        {"neat.advance_ms", "ms"},
        {"runtime.rollout_ms", "ms"},
        {"nn.infer_ms", "ms"},
        {"nn.infer_calls", "count"},
        {"env.step_ms", "ms"},
        {"env.steps", "count"},
        {"runtime.idle_share", "ratio"},
        {"runtime.steals", "count"},
        {"inax.replay_ms", "ms"},
        {"inax.cycles", "count"},
        {"persist.write_ms", "ms"},
        {"persist.bytes", "count"},
        {"e3.layer_share", "ratio"},
        {"runtime.rollout_share", "ratio"},
        {"e3.glue_share", "ratio"},
        {"obs.overhead_pct", "%"},
        {"serve.server_p50_ms", "ms"},
        {"serve.server_p99_ms", "ms"},
        {"serve.transport_p50_ms", "ms"},
        {"serve.inproc_p50_ms", "ms"},
        {"serve.inproc_p99_ms", "ms"},
        {"serve.batch_mean", "count"},
        {"serve.batches", "count"},
        {"serve.overloaded", "count"},
        {"serve.cache_hit_ratio", "ratio"},
        {"serve.cache_lookups", "count"},
        {"serve.cache_misses", "count"},
        {"serve.cache_evictions", "count"},
        {"nn.replicated_compile_us", "us"},
        {"nn.activate_batch_us.b1", "us"},
        {"nn.activate_batch_us.b16", "us"},
        {"protocol.encode_us", "us"},
        {"protocol.decode_us", "us"},
        {"client.send_lag_ms_p99", "ms"},
        {"serve.knee_rps", "1/s"},
    };
    return kAll;
}

} // namespace

void
addPerLayerDefaults(Report &report)
{
    for (const auto &[name, unit] : perLayerMetrics())
        report.set(name, 0.0, unit);
}

double
percentileBp(std::vector<double> samples, int q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    // Nearest rank: the smallest sample with at least q of the set at
    // or below it. Integer arithmetic keeps p99 of 1000 at rank 990.
    size_t rank = (static_cast<size_t>(q) * n + 9999) / 10000;
    rank = std::clamp<size_t>(rank, 1, n);
    return samples[rank - 1];
}

int
tailPercentileBp(size_t n)
{
    for (int q : {9900, 9000, 7500, 5000}) {
        const size_t rank = (static_cast<size_t>(q) * n + 9999) / 10000;
        if (n >= rank && n - rank >= 10)
            return q;
    }
    return 0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int
SpanRecorder::begin(const char *name)
{
    const int parent = open_.empty() ? -1 : open_.back();
    const double now = secondsBetween(origin_, Clock::now());
    spans_.push_back({name, parent, now, now});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
SpanRecorder::end(int index)
{
    spans_[static_cast<size_t>(index)].end =
        secondsBetween(origin_, Clock::now());
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

int
SpanRecorder::add(const char *name, int parent, double start, double end)
{
    spans_.push_back({name, parent, start, end});
    return static_cast<int>(spans_.size()) - 1;
}

double
SpanRecorder::selfSeconds(int index) const
{
    const Span &span = spans_[static_cast<size_t>(index)];
    std::vector<std::pair<double, double>> covered;
    for (const Span &child : spans_) {
        if (child.parent != index)
            continue;
        const double lo = std::max(child.start, span.start);
        const double hi = std::min(child.end, span.end);
        if (hi > lo)
            covered.push_back({lo, hi});
    }
    std::sort(covered.begin(), covered.end());
    double union_ = 0.0;
    double reach = span.start;
    for (const auto &[lo, hi] : covered) {
        const double from = std::max(lo, reach);
        if (hi > from)
            union_ += hi - from;
        reach = std::max(reach, hi);
    }
    return (span.end - span.start) - union_;
}

double
SpanRecorder::totalSeconds(const std::string &name) const
{
    double total = 0.0;
    for (const Span &span : spans_) {
        if (name == span.name)
            total += span.end - span.start;
    }
    return total;
}

double
SpanRecorder::totalSelfSeconds(const std::string &name) const
{
    double total = 0.0;
    for (size_t i = 0; i < spans_.size(); ++i) {
        if (name == spans_[i].name)
            total += selfSeconds(static_cast<int>(i));
    }
    return total;
}


bool
ladderStepPasses(const LadderStep &step)
{
    return step.p99Ms <= kKneeP99Ms && step.failures == 0 &&
           !step.backlogGrowing;
}

double
kneeRate(const std::vector<LadderStep> &steps)
{
    double knee = 0.0;
    for (const LadderStep &step : steps) {
        if (!ladderStepPasses(step))
            break;
        knee = step.rate;
    }
    return knee;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

uint64_t
deriveSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

std::vector<std::string>
selfTest()
{
    std::vector<std::string> failures;
    auto expect = [&](bool ok, const char *what) {
        if (!ok)
            failures.push_back(what);
    };
    auto same = [](double a, double b) { return std::fabs(a - b) < 1e-12; };

    // Percentile rule: p99 needs 1000 samples (10 beyond rank 990).
    expect(tailPercentileBp(1000) == 9900, "tail rule: 1000 -> p99");
    expect(tailPercentileBp(999) == 9000, "tail rule: 999 -> p90");
    expect(tailPercentileBp(100) == 9000, "tail rule: 100 -> p90");
    expect(tailPercentileBp(99) == 7500, "tail rule: 99 -> p75");
    expect(tailPercentileBp(40) == 7500, "tail rule: 40 -> p75");
    expect(tailPercentileBp(20) == 5000, "tail rule: 20 -> p50");
    expect(tailPercentileBp(19) == 0, "tail rule: 19 -> none");
    std::vector<double> ramp;
    for (int i = 1; i <= 1000; ++i)
        ramp.push_back(i);
    expect(same(percentileBp(ramp, 9900), 990.0), "nearest rank p99");
    expect(same(percentileBp(ramp, 5000), 500.0), "nearest rank p50");
    expect(same(percentileBp({}, 5000), 0.0), "empty percentile");
    expect(same(median({3.0, 1.0, 2.0, 10.0}), 2.5), "even median");

    // Miss accounting: misses are +inf, so 11 misses in 1000 push p99
    // to +inf while the median stays finite.
    std::vector<double> withMisses(ramp.begin(), ramp.end() - 11);
    withMisses.insert(withMisses.end(), 11, kMiss);
    expect(std::isinf(percentileBp(withMisses, 9900)), "miss -> inf p99");
    expect(same(percentileBp(withMisses, 5000), 500.0), "miss keeps p50");
    std::vector<double> fewMisses(ramp.begin(), ramp.end() - 10);
    fewMisses.insert(fewMisses.end(), 10, kMiss);
    expect(same(percentileBp(fewMisses, 9900), 990.0),
           "10 misses in 1000 stay beyond p99");
    Report r;
    r.set("lat", kMiss, "ms");
    expect(r.json().find("\"value\": 1000000000") != std::string::npos,
           "inf prints as 1e9");

    // Span self time: children [1,3], [2,5] (overlapping) and [7,8]
    // cover 5 s of the parent's 10, a grandchild does not count, and a
    // child sticking out of its parent is clipped.
    SpanRecorder spans;
    const int parent = spans.add("gen", -1, 0.0, 10.0);
    const int a = spans.add("a", parent, 1.0, 3.0);
    spans.add("b", parent, 2.0, 5.0);
    spans.add("c", parent, 7.0, 8.0);
    spans.add("grandchild", a, 1.5, 2.5);
    expect(same(spans.selfSeconds(parent), 5.0), "span self time");
    expect(same(spans.selfSeconds(a), 1.0), "child self time");
    const int other = spans.add("gen", -1, 20.0, 22.0);
    spans.add("late", other, 21.0, 30.0);
    expect(same(spans.selfSeconds(other), 1.0), "child clipped to parent");
    expect(same(spans.totalSelfSeconds("gen"), 6.0), "total self time");

    // Knee stop rule: the ladder stops at the first failing step even
    // if a later one would pass.
    std::vector<LadderStep> ladder = {
        {10000, 0.4, 0, false},
        {20000, 0.6, 0, false},
        {30000, 1.2, 0, false},
        {40000, 0.5, 0, false},
    };
    expect(same(kneeRate(ladder), 20000), "knee stops at first p99 miss");
    ladder[1].failures = 1;
    expect(same(kneeRate(ladder), 10000), "knee stops at first failure");
    ladder[0].backlogGrowing = true;
    expect(same(kneeRate(ladder), 0), "knee is 0 when step 1 fails");
    expect(ladderStepPasses({1000, kKneeP99Ms, 0, false}),
           "p99 exactly at the limit passes");
    expect(!ladderStepPasses({1000, kMiss, 0, false}),
           "a miss in the tail fails the step");
    return failures;
}

} // namespace e3::hostbench
