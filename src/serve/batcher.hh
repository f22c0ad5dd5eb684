/**
 * @file
 * Request batcher with admission control.
 *
 * Incoming inference requests land in one bounded FIFO. Worker threads
 * pull *groups*: the oldest request pins the champion fingerprint, and
 * the worker takes it together with every other request already queued
 * for the same champion, up to maxBatchSize, and dispatches them at
 * once. A worker never waits for company: groups form when requests
 * queue behind busy workers, and a request that finds a worker idle is
 * answered alone. Grouping amortizes the cache lookup and the
 * champion's eval-mutex acquisition across requests.
 *
 * Admission control: when the queue holds maxQueueDepth requests,
 * submit() rejects with Overloaded — a retriable condition — instead
 * of queueing unboundedly. After drain() begins, submissions reject
 * with Draining and the workers run the queue dry before exiting, so
 * every accepted request is answered exactly once.
 *
 * Batching never changes results: the evaluator activates the network
 * once per request, and activation is a pure function of (champion
 * definition, observation) — so a response is bit-identical whether
 * its request rode alone or in a full group.
 */

#ifndef E3_SERVE_BATCHER_HH
#define E3_SERVE_BATCHER_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.hh"
#include "serve/protocol.hh"

namespace e3::serve {

/** A queued request plus its completion callback. */
struct PendingRequest
{
    InferRequest request;
    std::function<void(const InferResponse &)> done;
    std::chrono::steady_clock::time_point enqueued;
};

/**
 * Counters the batcher maintains (all monotonic except depth).
 * Admissions and rejections are counted by ServerCounters.
 */
struct BatcherStats
{
    uint64_t batches = 0;
    uint64_t batchedRequests = 0;
    size_t maxBatchSize = 0;
    size_t queueDepth = 0;
};

class Batcher
{
  public:
    /** Every field must be at least 1 (ServeOptions::validate). */
    struct Options
    {
        size_t maxBatchSize = 16;
        size_t maxQueueDepth = 256;
        size_t threads = 1;
    };

    /**
     * Called on a worker thread with a group of requests that all
     * share one champion fingerprint. Must invoke every request's
     * done callback exactly once.
     */
    using Evaluator = std::function<void(std::vector<PendingRequest> &)>;

    Batcher(const Options &options, Evaluator evaluator);

    /** Drains and joins (equivalent to drain()). */
    ~Batcher();

    Batcher(const Batcher &) = delete;
    Batcher &operator=(const Batcher &) = delete;

    /**
     * Enqueue a request. On rejection (queue full, or draining) the
     * request is NOT consumed — @p pending stays intact, @p reason is
     * set, and false returns so the caller can answer the client
     * through the still-valid callback.
     */
    [[nodiscard]] bool submit(PendingRequest &&pending,
                              StatusCode &reason);

    /**
     * Stop accepting, run the queue dry, and join the workers.
     * Idempotent.
     */
    void drain();

    BatcherStats stats() const;

  private:
    void workerLoop();

    Options options_;
    Evaluator evaluator_;

    mutable Mutex mutex_;
    CondVar cv_;
    std::deque<PendingRequest> queue_ E3_GUARDED_BY(mutex_);
    bool draining_ E3_GUARDED_BY(mutex_) = false;
    BatcherStats stats_ E3_GUARDED_BY(mutex_);

    std::vector<std::thread> workers_;
};

} // namespace e3::serve

#endif // E3_SERVE_BATCHER_HH
