/**
 * @file
 * Low-overhead trace recorder emitting Chrome trace-event JSON.
 *
 * The paper's headline artifacts (Fig. 1/3 timing profiles, Fig. 9
 * runtime breakdown, Fig. 6/7 utilization) are observability products.
 * This recorder makes every run replayable: scoped spans on real
 * threads capture where wall-clock goes once --threads spreads
 * evaluation over workers, and *virtual* tracks replay the INAX
 * model's per-PU/PE busy cycles on a modeled-time axis. The output
 * loads directly in Perfetto (https://ui.perfetto.dev) or
 * chrome://tracing.
 *
 * Cost model: when disabled (the default), every emission path is one
 * relaxed atomic load and an early return — no locks, no allocation.
 * When enabled, events append to a per-thread buffer behind that
 * buffer's own (uncontended) mutex; buffers are drained once at
 * traceStop(). All of it is thread-safe and TSan-clean.
 */

#ifndef E3_OBS_TRACE_HH
#define E3_OBS_TRACE_HH

#include <cstdint>
#include <string>

namespace e3::obs {

/**
 * How much to record. Each level includes the ones before it:
 *  - Phase: per-generation platform phases (evaluate/evolve/...).
 *  - Task:  thread-pool task spans, queue-depth counters, steals.
 *  - Hw:    modeled INAX timelines (per-PU inference, DMA, sync).
 */
enum class TraceDetail { Phase = 0, Task = 1, Hw = 2 };

/** Parse "phase" | "task" | "hw"; returns false on anything else. */
bool parseTraceDetail(const std::string &text, TraceDetail &out);

/** True if tracing is on at all (one relaxed atomic load). */
bool traceEnabled();

/** True if tracing is on and records events of this detail level. */
bool traceEnabled(TraceDetail detail);

/** Enable recording at the given detail; resets any buffered events. */
void traceStart(TraceDetail detail);

/**
 * Disable recording, serialize everything buffered so far as a Chrome
 * trace-event JSON document, and clear the buffers.
 */
std::string traceStopToString();

/**
 * traceStopToString() straight to a file.
 * @return true on success; warn()s and returns false otherwise.
 */
bool traceStop(const std::string &path);

/** Disable and drop all buffered events (test helper). */
void traceReset();

/** Microseconds since process start (the trace's wall-clock axis). */
double traceNowUs();

/** Name the calling thread in the trace (e.g. "worker3"). */
void traceSetThreadName(const std::string &name);

/** Emit a completed span [tsUs, tsUs+durUs] on the calling thread. */
void traceComplete(const char *name, TraceDetail detail, double tsUs,
                   double durUs);

/** Emit a counter sample on the process counter track. */
void traceCounter(const char *name, double value,
                  TraceDetail detail = TraceDetail::Phase);

/** Emit an instant event (e.g. a work steal) on the calling thread. */
void traceInstant(const char *name,
                  TraceDetail detail = TraceDetail::Task);

/**
 * A virtual timeline: a (process, thread) pair that exists only in the
 * trace. Used to plot modeled hardware activity (each INAX PU, the DMA
 * engine, the sync channel) against a modeled-cycle time axis.
 */
struct TraceTrack
{
    int pid = 0;
    int tid = 0;
};

/**
 * Look up (or create) the virtual track named process/thread. Tracks
 * are stable for the lifetime of the trace session. Only call when
 * traceEnabled(TraceDetail::Hw) — returns {0,0} otherwise.
 */
TraceTrack traceTrack(const std::string &process,
                      const std::string &thread);

/** Emit a completed span with an explicit (modeled) timestamp. */
void traceCompleteOn(const TraceTrack &track, const char *name,
                     double tsUs, double durUs);

/** Emit a counter sample on a virtual track's process. */
void traceCounterOn(const TraceTrack &track, const char *name,
                    double tsUs, double value);

/**
 * Claim @p cycles on the global modeled-hardware clock and return the
 * cycle the claim starts at. Serializes modeled timeline segments
 * (setup, step windows) across sessions and generations so they never
 * overlap on the trace's time axis. Resets to 0 at traceStart().
 */
uint64_t traceClaimHwCycles(uint64_t cycles);

/**
 * RAII scoped span: records the start time at construction and emits a
 * complete event for the enclosed region at destruction. When tracing
 * is disabled (or below @p detail) both ends are a relaxed atomic load.
 */
class TraceSpan
{
  public:
    /** @p name must outlive the span (string literals in practice). */
    explicit TraceSpan(const char *name,
                       TraceDetail detail = TraceDetail::Phase);

    /** Dynamic-name variant; copies @p name only when recording. */
    TraceSpan(const std::string &name, TraceDetail detail);

    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    std::string owned_;     ///< backing storage for dynamic names
    const char *name_ = ""; ///< what gets recorded
    TraceDetail detail_;
    double startUs_ = 0.0;
    bool active_ = false;
};

} // namespace e3::obs

#endif // E3_OBS_TRACE_HH
