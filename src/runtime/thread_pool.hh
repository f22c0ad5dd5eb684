/**
 * @file
 * Fixed-size worker pool with one work-stealing deque per worker.
 *
 * The evaluate phase is embarrassingly parallel — one episode per
 * individual, each terminating on its own schedule (paper Sec. V-B) —
 * but episode lengths vary wildly (the irregularity of Fig. 4), so a
 * static partition of lanes leaves workers idle behind the longest
 * episodes. Each worker therefore owns a deque: parallelFor deals its
 * chunks in contiguous blocks (a deterministic initial placement that
 * keeps neighbouring iterations, and the neighbouring state they
 * write, on one worker), owners pop oldest-first, and an idle worker
 * steals from the back of a victim's deque. Stealing only moves
 * *where* a chunk executes; iterations write disjoint results, so
 * outcomes are schedule-independent.
 *
 * Per-worker counters (tasks run, tasks stolen, idle seconds) feed the
 * utilization accounting in common/stats — the software analogue of
 * the paper's U(PE)/U(PU) hardware counters.
 */

#ifndef E3_RUNTIME_THREAD_POOL_HH
#define E3_RUNTIME_THREAD_POOL_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/stats.hh"
#include "common/thread_annotations.hh"

namespace e3::runtime {

/** Execution counters of one pool worker. */
struct WorkerStats
{
    uint64_t tasksRun = 0;    ///< tasks executed by this worker
    uint64_t tasksStolen = 0; ///< subset of tasksRun taken from a victim
    double idleSeconds = 0.0; ///< time spent waiting for work
};

/** Fixed set of worker threads with per-worker work-stealing deques. */
class ThreadPool
{
  public:
    /** Spawn @p workers threads (at least one). */
    explicit ThreadPool(size_t workers);

    /** Stops and joins all workers. @pre no batch is still in flight. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    size_t workerCount() const { return workers_.size(); }

    /**
     * Deterministic fan-out/fan-in: run body(i) for every i in [0, n)
     * and block until all iterations finished. Iterations are chunked
     * by @p grain and dealt to the worker deques in contiguous blocks
     * (chunk c of C starts on worker c * W / C); they may be stolen.
     * The caller must ensure iterations write disjoint state; then the
     * result is identical for every worker count and schedule. The
     * first exception thrown by an iteration is rethrown here
     * (remaining iterations may be skipped).
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &body,
                     size_t grain = 1);

    /** Snapshot of every worker's counters. */
    std::vector<WorkerStats> stats() const;

    /**
     * Export worker counters into a stat group:
     * `<prefix>worker<i>.tasks_run|tasks_stolen|idle_seconds` plus
     * `<prefix>tasks_run|tasks_stolen|idle_seconds` totals.
     */
    void exportCounters(Counters &out,
                        const std::string &prefix = "runtime.") const;

  private:
    using Task = std::function<void()>;

    struct Worker
    {
        mutable Mutex mutex;
        std::deque<Task> deque E3_GUARDED_BY(mutex);
        std::atomic<uint64_t> tasksRun{0};
        std::atomic<uint64_t> tasksStolen{0};
        std::atomic<double> idleSeconds{0.0};
    };

    void workerLoop(size_t index);
    bool popOwn(size_t index, Task &task);
    bool stealFrom(size_t thief, Task &task);
    void enqueue(size_t worker, Task task);

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;

    /** Sleep/wake protocol: epoch bumps on every enqueue. */
    Mutex sleepMutex_;
    CondVar workAvailable_;
    uint64_t epoch_ E3_GUARDED_BY(sleepMutex_) = 0;
    bool stop_ E3_GUARDED_BY(sleepMutex_) = false;

    /** Tasks enqueued but not yet claimed (trace queue-depth track). */
    std::atomic<int64_t> queued_{0};
};

} // namespace e3::runtime

#endif // E3_RUNTIME_THREAD_POOL_HH
