#include "serve/batcher.hh"

#include <algorithm>

#include "common/logging.hh"

namespace e3::serve {

Batcher::Batcher(const Options &options, Evaluator evaluator)
    : options_(options), evaluator_(std::move(evaluator))
{
    e3_assert(options_.maxBatchSize > 0, "batcher needs maxBatchSize >= 1");
    e3_assert(options_.maxQueueDepth > 0,
              "batcher needs maxQueueDepth >= 1");
    e3_assert(options_.threads > 0, "batcher needs threads >= 1");
    workers_.reserve(options_.threads);
    for (size_t i = 0; i < options_.threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

Batcher::~Batcher()
{
    drain();
}

bool
Batcher::submit(PendingRequest &&pending, StatusCode &reason)
{
    {
        MutexLock lock(mutex_);
        if (draining_) {
            reason = StatusCode::Draining;
            return false;
        }
        if (queue_.size() >= options_.maxQueueDepth) {
            reason = StatusCode::Overloaded;
            return false;
        }
        queue_.push_back(std::move(pending));
        stats_.queueDepth = queue_.size();
    }
    cv_.notify_one();
    return true;
}

void
Batcher::drain()
{
    {
        MutexLock lock(mutex_);
        if (draining_ && workers_.empty())
            return;
        draining_ = true;
    }
    cv_.notify_all();
    for (auto &worker : workers_) {
        if (worker.joinable())
            worker.join();
    }
    workers_.clear();
}

BatcherStats
Batcher::stats() const
{
    MutexLock lock(mutex_);
    return stats_;
}

void
Batcher::workerLoop()
{
    for (;;) {
        std::vector<PendingRequest> batch;
        {
            MutexLock lock(mutex_);
            while (!draining_ && queue_.empty())
                cv_.wait(lock);
            if (queue_.empty())
                return; // draining and dry

            // The oldest request pins the group's champion; every
            // other queued request for it joins, up to maxBatchSize.
            const uint64_t fingerprint =
                queue_.front().request.fingerprint;
            for (auto it = queue_.begin();
                 it != queue_.end() &&
                 batch.size() < options_.maxBatchSize;) {
                if (it->request.fingerprint == fingerprint) {
                    batch.push_back(std::move(*it));
                    it = queue_.erase(it);
                } else {
                    ++it;
                }
            }
            ++stats_.batches;
            stats_.batchedRequests += batch.size();
            stats_.maxBatchSize =
                std::max(stats_.maxBatchSize, batch.size());
            stats_.queueDepth = queue_.size();
        }
        // Other groups may still be runnable; let another worker in.
        cv_.notify_all();
        evaluator_(batch);
    }
}

} // namespace e3::serve
