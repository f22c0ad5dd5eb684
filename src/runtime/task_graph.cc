#include "runtime/task_graph.hh"

#include "common/logging.hh"
#include "common/thread_annotations.hh"
#include "obs/trace.hh"

namespace e3::runtime {

TaskGraph::TaskId
TaskGraph::add(std::string label, ThreadPool::Task fn)
{
    e3_assert(!ran_, "TaskGraph is one-shot; cannot add after run()");
    e3_assert(fn, "task '", label, "' has no body");
    nodes_.push_back(Node{std::move(label), std::move(fn), {}, 0});
    return nodes_.size() - 1;
}

void
TaskGraph::dependsOn(TaskId task, TaskId prerequisite)
{
    e3_assert(task < nodes_.size(), "unknown task id ", task);
    e3_assert(prerequisite < nodes_.size(), "unknown prerequisite id ",
              prerequisite);
    e3_assert(task != prerequisite, "task '", nodes_[task].label,
              "' cannot depend on itself");
    nodes_[prerequisite].successors.push_back(task);
    ++nodes_[task].indegree;
}

void
TaskGraph::run(ThreadPool &pool)
{
    e3_assert(!ran_, "TaskGraph is one-shot; run() already called");
    ran_ = true;
    if (nodes_.empty())
        return;

    // Kahn's algorithm up front: a cycle would otherwise deadlock the
    // drain below.
    {
        std::vector<size_t> indegree(nodes_.size());
        std::vector<TaskId> queue;
        for (TaskId id = 0; id < nodes_.size(); ++id) {
            indegree[id] = nodes_[id].indegree;
            if (indegree[id] == 0)
                queue.push_back(id);
        }
        size_t seen = 0;
        while (seen < queue.size()) {
            const TaskId id = queue[seen++];
            for (TaskId next : nodes_[id].successors) {
                if (--indegree[next] == 0)
                    queue.push_back(next);
            }
        }
        e3_assert(seen == nodes_.size(),
                  "task graph has a dependency cycle");
    }

    struct Run
    {
        Mutex mutex;
        CondVar done;
        std::vector<size_t> indegree E3_GUARDED_BY(mutex);
        size_t remaining E3_GUARDED_BY(mutex) = 0;
        std::exception_ptr error E3_GUARDED_BY(mutex);
        bool failed E3_GUARDED_BY(mutex) = false;
    } state;
    {
        MutexLock lock(state.mutex);
        state.indegree.resize(nodes_.size());
        for (TaskId id = 0; id < nodes_.size(); ++id)
            state.indegree[id] = nodes_[id].indegree;
        state.remaining = nodes_.size();
    }

    // Recursive lambda: executing a node readies its successors.
    std::function<void(TaskId)> execute = [&](TaskId id) {
        bool skip;
        {
            MutexLock lock(state.mutex);
            skip = state.failed;
        }
        std::exception_ptr error;
        if (!skip) {
            try {
                obs::TraceSpan span(nodes_[id].label,
                                    obs::TraceDetail::Task);
                nodes_[id].fn();
            } catch (...) {
                error = std::current_exception();
            }
        }

        std::vector<TaskId> ready;
        {
            MutexLock lock(state.mutex);
            if (error) {
                if (!state.error)
                    state.error = error;
                state.failed = true;
            }
            for (TaskId next : nodes_[id].successors) {
                if (--state.indegree[next] == 0)
                    ready.push_back(next);
            }
            // Last node signals under the lock, then never touches
            // `state` again — safe against the waiter returning.
            if (--state.remaining == 0)
                state.done.notify_all();
        }
        for (TaskId next : ready)
            pool.submit([&execute, next] { execute(next); });
    };

    // Roots are dealt in contiguous blocks of insertion order, so
    // neighbouring roots (e.g. adjacent lanes) start on one worker.
    std::vector<TaskId> roots;
    for (TaskId id = 0; id < nodes_.size(); ++id) {
        if (nodes_[id].indegree == 0)
            roots.push_back(id);
    }
    for (size_t r = 0; r < roots.size(); ++r) {
        const TaskId id = roots[r];
        pool.submitTo(r * pool.workerCount() / roots.size(),
                      [&execute, id] { execute(id); });
    }

    MutexLock lock(state.mutex);
    while (state.remaining != 0)
        state.done.wait(lock);
    if (state.error)
        std::rethrow_exception(state.error);
}

} // namespace e3::runtime
