/**
 * @file
 * Accelerator-level cycle model (paper Sec. IV-C).
 *
 * INAX executes "evaluate" in two phases: set-up (a batch of up to
 * numPUs individuals' configurations streams in over the weight
 * channel) and compute (per env step: scatter inputs, every live PU
 * runs one inference, gather outputs, handshake with the CPU).
 * PUs synchronize per step — the lockstep the CPU-side env loop imposes
 * — so early-terminating individuals idle their PU, and slow networks
 * stall the whole batch (the U(PU) issues of Sec. V-B).
 *
 * The same session machinery also runs the systolic-array baseline:
 * anything that can express an IndividualCost can be scheduled.
 */

#ifndef E3_INAX_INAX_HH
#define E3_INAX_INAX_HH

#include <vector>

#include "inax/pu.hh"
#include "inax/utilization.hh"
#include "obs/trace.hh"

namespace e3 {

/** Cycle/utilization report of one accelerator run. */
struct InaxReport
{
    uint64_t setupCycles = 0;   ///< configuration streaming
    uint64_t computeCycles = 0; ///< lockstep inference windows
    uint64_t ioCycles = 0;      ///< input scatter + output gather
    uint64_t syncCycles = 0;    ///< CPU handshake (sig channel)
    uint64_t steps = 0;         ///< evaluate iterations executed
    uint64_t batches = 0;       ///< PU-batch rounds

    UtilizationTracker pe; ///< PE-level utilization, U(PE)
    UtilizationTracker pu; ///< PU-level utilization, U(PU)

    /** Total accelerator-busy cycles. */
    uint64_t totalCycles() const
    {
        return setupCycles + computeCycles + ioCycles + syncCycles;
    }

    /**
     * "Evaluate control" of Fig. 9(a): everything in the compute phase
     * that is not useful PE work, plus transfer and handshake overhead.
     */
    uint64_t evaluateControlCycles() const;

    /** Wall-clock seconds at the config's clock. */
    double seconds(const InaxConfig &cfg) const
    {
        return static_cast<double>(totalCycles()) *
               cfg.secondsPerCycle();
    }

    /** Merge another report (e.g. across generations). */
    void merge(const InaxReport &other);
};

/**
 * Step-accurate accelerator session, driven by the E3 platform: load a
 * batch, then call step() once per env iteration with the live mask.
 */
class AcceleratorSession
{
  public:
    explicit AcceleratorSession(const InaxConfig &cfg);

    /**
     * Set-up phase for a batch of at most cfg.numPUs individuals; the
     * shared weight channel serializes their configuration streams.
     */
    void loadBatch(std::vector<IndividualCost> batch);

    /**
     * One evaluate iteration: every live lane's PU computes; the window
     * closes on the slowest live PU.
     * @param live one flag per loaded lane
     * @param repeats consecutive iterations with this same mask; the
     *        report grows by repeats windows (exact: every field is an
     *        integer count), and a hw-detail trace gets one window each
     */
    void step(const std::vector<bool> &live, uint64_t repeats = 1);

    /**
     * One episode round of the loaded batch: lane i stays live for
     * lengths[i] steps. Equal to calling step() once per iteration
     * while any lane is live, but one call per run of constant
     * liveness.
     * @param count must equal batchSize()
     */
    void runEpisode(const int *lengths, size_t count);

    const InaxReport &report() const { return report_; }
    const InaxConfig &config() const { return cfg_; }
    size_t batchSize() const { return batch_.size(); }

  private:
    /** Lay the batch's modeled timeline onto virtual trace tracks. */
    void traceBatchSetup();

    InaxConfig cfg_;
    std::vector<IndividualCost> batch_;
    InaxReport report_;
    std::vector<int> runEnds_; ///< runEpisode scratch
    std::vector<bool> live_;   ///< runEpisode scratch

    // Modeled-timeline tracing (hw detail), latched per batch so the
    // per-step fast path is a single bool check when tracing is off.
    bool tracing_ = false;
    double usPerCycle_ = 0.0;
    std::vector<obs::TraceTrack> puTracks_;
    obs::TraceTrack dmaTrack_;
    obs::TraceTrack ctrlTrack_;
    obs::TraceTrack weightTrack_;
};

/**
 * How individuals are assigned to PU batches. The paper dispatches in
 * population order; grouping similar-cost individuals shrinks each
 * step's synchronization window (an "enhancing utilization" heuristic
 * in the spirit of Sec. V, evaluated by bench_ablation_batching).
 */
enum class BatchPolicy
{
    InOrder,        ///< population order (the paper's dispatch)
    SortedByCost,   ///< group individuals of similar inference cost
    SortedByLength, ///< group individuals of similar episode length
};

/**
 * Whole-run convenience: execute `individuals` with the given episode
 * lengths, batching cfg.numPUs at a time.
 */
InaxReport runAccelerator(const std::vector<IndividualCost> &individuals,
                          const std::vector<int> &episodeLengths,
                          const InaxConfig &cfg,
                          BatchPolicy policy = BatchPolicy::InOrder);

} // namespace e3

#endif // E3_INAX_INAX_HH
