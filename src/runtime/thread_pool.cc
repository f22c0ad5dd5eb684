#include "runtime/thread_pool.hh"

#include <chrono>
#include <exception>

#include "common/logging.hh"
#include "obs/trace.hh"

namespace e3::runtime {

ThreadPool::ThreadPool(size_t workers)
{
    e3_assert(workers >= 1, "thread pool needs at least one worker");
    workers_.reserve(workers);
    for (size_t i = 0; i < workers; ++i)
        workers_.push_back(std::make_unique<Worker>());
    threads_.reserve(workers);
    for (size_t i = 0; i < workers; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(sleepMutex_);
        stop_ = true;
    }
    workAvailable_.notify_all();
    for (auto &thread : threads_)
        thread.join();
}

void
ThreadPool::enqueue(size_t worker, Task task)
{
    e3_assert(worker < workers_.size(), "worker ", worker,
              " out of range");
    {
        Worker &target = *workers_[worker];
        MutexLock lock(target.mutex);
        target.deque.push_back(std::move(task));
    }
    const int64_t depth =
        queued_.fetch_add(1, std::memory_order_relaxed) + 1;
    obs::traceCounter("pool.queued", static_cast<double>(depth),
                      obs::TraceDetail::Task);
    {
        MutexLock lock(sleepMutex_);
        ++epoch_;
    }
    workAvailable_.notify_all();
}

bool
ThreadPool::popOwn(size_t index, Task &task)
{
    Worker &self = *workers_[index];
    MutexLock lock(self.mutex);
    if (self.deque.empty())
        return false;
    task = std::move(self.deque.front());
    self.deque.pop_front();
    // Counted at claim time, under the deque lock: whoever observes a
    // later claim from this deque also sees this task counted.
    self.tasksRun.fetch_add(1, std::memory_order_relaxed);
    return true;
}

bool
ThreadPool::stealFrom(size_t thief, Task &task)
{
    const size_t n = workers_.size();
    for (size_t k = 1; k < n; ++k) {
        Worker &victim = *workers_[(thief + k) % n];
        MutexLock lock(victim.mutex);
        if (victim.deque.empty())
            continue;
        task = std::move(victim.deque.back());
        victim.deque.pop_back();
        workers_[thief]->tasksRun.fetch_add(
            1, std::memory_order_relaxed);
        workers_[thief]->tasksStolen.fetch_add(
            1, std::memory_order_relaxed);
        obs::traceInstant("steal", obs::TraceDetail::Task);
        return true;
    }
    return false;
}

void
ThreadPool::workerLoop(size_t index)
{
    obs::traceSetThreadName("worker" + std::to_string(index));
    Worker &self = *workers_[index];
    for (;;) {
        uint64_t seen;
        {
            MutexLock lock(sleepMutex_);
            if (stop_)
                return;
            seen = epoch_;
        }

        Task task;
        if (popOwn(index, task) || stealFrom(index, task)) {
            const int64_t depth =
                queued_.fetch_sub(1, std::memory_order_relaxed) - 1;
            obs::traceCounter("pool.queued",
                              static_cast<double>(depth),
                              obs::TraceDetail::Task);
            {
                obs::TraceSpan span("task", obs::TraceDetail::Task);
                task();
            }
            continue;
        }

        // Nothing anywhere: sleep until an enqueue bumps the epoch. A
        // task pushed after the scan above bumped the epoch past
        // `seen`, so the predicate fails and we rescan immediately.
        MutexLock lock(sleepMutex_);
        // e3-lint: wall-clock-ok -- idle-time measurement; never feeds RNG
        const auto idleStart = std::chrono::steady_clock::now();
        while (!stop_ && epoch_ == seen)
            workAvailable_.wait(lock);
        const std::chrono::duration<double> idle =
            // e3-lint: wall-clock-ok -- idle-time measurement; never feeds RNG
            std::chrono::steady_clock::now() - idleStart;
        self.idleSeconds.fetch_add(idle.count(),
                                   std::memory_order_relaxed);
        if (stop_)
            return;
    }
}

void
ThreadPool::parallelFor(size_t n,
                        const std::function<void(size_t)> &body,
                        size_t grain)
{
    if (n == 0)
        return;
    e3_assert(grain >= 1, "parallelFor grain must be >= 1");

    struct Batch
    {
        Mutex mutex;
        CondVar done;
        size_t remaining E3_GUARDED_BY(mutex) = 0;
        std::exception_ptr error E3_GUARDED_BY(mutex);
        std::atomic<bool> failed{false};
    } batch;
    const size_t chunks = (n + grain - 1) / grain;
    {
        MutexLock lock(batch.mutex);
        batch.remaining = chunks;
    }

    for (size_t c = 0; c < chunks; ++c) {
        const size_t lo = c * grain;
        const size_t hi = std::min(n, lo + grain);
        // Deterministic deal in contiguous blocks: chunk c always
        // starts on deque c * W / chunks, so neighbouring iterations
        // (and the state they write) stay on one worker. Stealing may
        // move a chunk, but results are index-disjoint.
        enqueue(c * workers_.size() / chunks, [&batch, &body, lo, hi] {
            std::exception_ptr error;
            if (!batch.failed.load(std::memory_order_relaxed)) {
                try {
                    for (size_t i = lo; i < hi; ++i)
                        body(i);
                } catch (...) {
                    error = std::current_exception();
                    batch.failed.store(true,
                                       std::memory_order_relaxed);
                }
            }
            // Decrement and notify under one lock hold: the waiter can
            // only observe remaining == 0 after this task released the
            // mutex and will never touch the batch again.
            MutexLock lock(batch.mutex);
            if (error && !batch.error)
                batch.error = error;
            if (--batch.remaining == 0)
                batch.done.notify_all();
        });
    }

    MutexLock lock(batch.mutex);
    while (batch.remaining != 0)
        batch.done.wait(lock);
    if (batch.error)
        std::rethrow_exception(batch.error);
}

std::vector<WorkerStats>
ThreadPool::stats() const
{
    std::vector<WorkerStats> out;
    out.reserve(workers_.size());
    for (const auto &worker : workers_) {
        WorkerStats ws;
        ws.tasksRun = worker->tasksRun.load(std::memory_order_relaxed);
        ws.tasksStolen =
            worker->tasksStolen.load(std::memory_order_relaxed);
        ws.idleSeconds =
            worker->idleSeconds.load(std::memory_order_relaxed);
        out.push_back(ws);
    }
    return out;
}

void
ThreadPool::exportCounters(Counters &out,
                           const std::string &prefix) const
{
    const std::vector<WorkerStats> all = stats();
    for (size_t i = 0; i < all.size(); ++i) {
        const std::string base =
            prefix + "worker" + std::to_string(i) + ".";
        out.add(base + "tasks_run",
                static_cast<double>(all[i].tasksRun));
        out.add(base + "tasks_stolen",
                static_cast<double>(all[i].tasksStolen));
        out.add(base + "idle_seconds", all[i].idleSeconds);
    }
    double run = 0.0;
    double stolen = 0.0;
    double idle = 0.0;
    for (const auto &ws : all) {
        run += static_cast<double>(ws.tasksRun);
        stolen += static_cast<double>(ws.tasksStolen);
        idle += ws.idleSeconds;
    }
    out.add(prefix + "tasks_run", run);
    out.add(prefix + "tasks_stolen", stolen);
    out.add(prefix + "idle_seconds", idle);
}

} // namespace e3::runtime
