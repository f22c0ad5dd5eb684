/**
 * @file
 * Shared pieces of the host-time benchmark: options, the result
 * report, latency accounting, the span recorder used by the traced
 * per-layer driver, and the knee-ladder stop rule.
 *
 * Every function here is pure arithmetic over recorded numbers, so the
 * benchmark's own bookkeeping can be checked by selfTest() before any
 * measurement is trusted.
 */

#ifndef E3_HOSTBENCH_BENCH_HH
#define E3_HOSTBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace e3::hostbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock instants. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string scratchDir; ///< temp files (checkpoints) live here
    std::string goldenPath; ///< recorded evolve reference values
    bool writeGolden = false; ///< print golden lines instead of checking
};

/**
 * One run's result: the correctness verdict, operation counts and the
 * named metrics, printed as the last stdout line in the order added.
 */
struct Report
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    std::vector<std::string> problems; ///< why correct is false

    /** Record a failed correctness check (the run exits non-zero). */
    void fail(const std::string &why);

    /** Set (or overwrite) a metric. */
    void set(const std::string &name, double value,
             const std::string &unit);

    /** The final JSON line. Non-finite values print as 1e9. */
    std::string json() const;
};

/**
 * Pre-fill every metric a traced (--trace 1) run prints with 0, the
 * value of a layer the workload does not exercise.
 */
void addPerLayerDefaults(Report &report);

/** Value used for a request that failed or was never answered. */
inline constexpr double kMiss = std::numeric_limits<double>::infinity();

/**
 * Nearest-rank percentile over latency samples, where misses are
 * +inf and so sort after every answered request. @p q is in basis
 * points (9900 = p99). 0 for an empty set.
 */
double percentileBp(std::vector<double> samples, int q);

/**
 * The highest of p99, p90, p75 and p50 (in basis points) with at
 * least ten samples beyond it among @p n samples; 0 when even p50 has
 * fewer than ten.
 */
int tailPercentileBp(size_t n);

/** Median of @p values (mean of the middle pair); 0 when empty. */
double median(std::vector<double> values);

/**
 * Spans recorded by the benchmark around the calls it makes into each
 * layer. Spans nest by parent index; a span's self time is its length
 * minus the part of it its children cover (overlaps counted once).
 */
class SpanRecorder
{
  public:
    struct Span
    {
        const char *name = ""; ///< a string literal
        int parent = -1;
        double start = 0.0; ///< seconds since the recorder's origin
        double end = 0.0;
    };

    SpanRecorder() : origin_(Clock::now()) {}

    /** Open a span under the innermost open one; returns its index. */
    int begin(const char *name);

    /** Close span @p index (must be the innermost open span). */
    void end(int index);

    /** Record a closed span directly (for self-tests). */
    int add(const char *name, int parent, double start, double end);

    /** Length of span @p index minus the union of its children. */
    double selfSeconds(int index) const;

    /** Total length of every span named @p name. */
    double totalSeconds(const std::string &name) const;

    /** Total self time of every span named @p name. */
    double totalSelfSeconds(const std::string &name) const;


  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII helper: one span around a scope. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, const char *name)
        : recorder_(recorder), index_(recorder.begin(name))
    {
    }
    ~ScopedSpan() { recorder_.end(index_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &recorder_;
    int index_;
};

/** Outcome of one step of the offered-rate ladder. */
struct LadderStep
{
    double rate = 0.0;     ///< offered requests per second
    double p99Ms = 0.0;    ///< from due time; +inf with any miss in it
    uint64_t failures = 0; ///< non-Ok, undecodable or unanswered
    bool backlogGrowing = false;
};

/** The knee's latency limit on p99. */
inline constexpr double kKneeP99Ms = 1.0;

/** A step passes when p99 <= 1 ms, nothing failed and no backlog grew. */
bool ladderStepPasses(const LadderStep &step);

/**
 * The knee: the highest rate of the passing prefix of the ladder (the
 * ladder stops at its first failing step); 0 if the first step fails.
 */
double kneeRate(const std::vector<LadderStep> &steps);

/** Run the arithmetic self-tests; returns the failures (empty = ok). */
std::vector<std::string> selfTest();

/** Peak resident set of this process in MiB. */
double peakRssMb();

/** SplitMix64: derive independent sub-seeds from the run seed. */
uint64_t deriveSeed(uint64_t seed, uint64_t stream);

/** Workload entry points (fill @p report; return false on usage error). */
bool runEvolve(const Options &options, Report &report);
bool runServe(const Options &options, Report &report);

} // namespace e3::hostbench

#endif // E3_HOSTBENCH_BENCH_HH
