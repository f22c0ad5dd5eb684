/**
 * @file
 * A small dependency graph executed on a ThreadPool.
 *
 * The async evolve/evaluate overlap is a DAG: per-lane episode tasks
 * fan out, and each species' fitness-summary task depends only on the
 * lanes of that species — so summaries start the moment their species
 * finishes, while other lanes are still rolling out (the CLAN-style
 * overlap of CPU-side evolve work with the evaluate tail). Tasks write
 * disjoint state, so any legal schedule yields the same result.
 */

#ifndef E3_RUNTIME_TASK_GRAPH_HH
#define E3_RUNTIME_TASK_GRAPH_HH

#include <string>
#include <vector>

#include "runtime/thread_pool.hh"

namespace e3::runtime {

/** One-shot dependency DAG; build with add()/dependsOn(), then run(). */
class TaskGraph
{
  public:
    using TaskId = size_t;

    /** Add a node; returns its id. @p label shows up in error reports. */
    TaskId add(std::string label, ThreadPool::Task fn);

    /** Require @p prerequisite to finish before @p task starts. */
    void dependsOn(TaskId task, TaskId prerequisite);

    size_t taskCount() const { return nodes_.size(); }

    /**
     * Execute every node on the pool, respecting dependencies; blocks
     * until all nodes finished. Roots are dealt to workers in
     * contiguous blocks of insertion order (root r of R starts on
     * worker r * W / R), a deterministic initial placement that keeps
     * neighbouring roots on one worker. If a node throws, its
     * transitive dependents are skipped and the first exception is
     * rethrown after the graph drains. A TaskGraph is one-shot: run()
     * may be called once.
     */
    void run(ThreadPool &pool);

  private:
    struct Node
    {
        std::string label;
        ThreadPool::Task fn;
        std::vector<TaskId> successors;
        size_t indegree = 0;
    };

    std::vector<Node> nodes_;
    bool ran_ = false;
};

} // namespace e3::runtime

#endif // E3_RUNTIME_TASK_GRAPH_HH
