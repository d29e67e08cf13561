/**
 * @file
 * Online work/span analysis of the task DAG — the reproduction's
 * substitute for Cilkview (paper Section V-D and Table III's Work,
 * Span, Parallelism, and IPT columns).
 *
 * Definitions: every logical instruction (work() cycle or memory
 * operation, as counted by Core::instCount independent of core kind
 * or contention) belongs to the task executing it. Work is the total
 * over all tasks. Span (critical path) follows the fork-join
 * recurrence for spawn-and-wait-all DAGs:
 *
 *   - a task's position advances with its own instructions;
 *   - a child spawned at position p contributes a completion path of
 *     p + span(child);
 *   - at a wait, the position jumps to the maximum of its own position
 *     and every joined child's completion path.
 *
 * All bookkeeping is host-side (no simulated cost), mirroring how
 * Cilkview instruments a native binary without perturbing it. It is
 * always on, fed by rt::Runtime's task-event fan-out and Worker::accrue.
 */

#ifndef BIGTINY_CORE_DAG_PROFILER_HH
#define BIGTINY_CORE_DAG_PROFILER_HH

#include <cstdint>
#include <vector>

#include "common/log.hh"

namespace bigtiny::rt
{

class DagProfiler
{
  public:
    /** Index of a task entry; -1 = no task (outside the root). */
    using Idx = int64_t;

    static constexpr Idx none = -1;

    /** Register a task spawned by @p parent at its current position. */
    Idx
    newTask(Idx parent)
    {
        Entry e;
        e.parent = parent;
        e.spawnPos = parent == none ? 0 : entries[parent].ownPos;
        entries.push_back(e);
        return static_cast<Idx>(entries.size()) - 1;
    }

    /** Charge @p insts own instructions to task @p idx. */
    void
    accrue(Idx idx, uint64_t insts)
    {
        if (idx == none)
            return;
        entries[idx].ownPos += insts;
        totalWork += insts;
    }

    /** Task @p idx finished executing: fold its path into the parent. */
    void
    onTaskDone(Idx idx)
    {
        if (idx == none)
            return;
        Entry &e = entries[idx];
        if (e.parent != none) {
            Entry &p = entries[e.parent];
            uint64_t path = e.spawnPos + e.ownPos;
            if (path > p.maxChildPath) {
                p.maxChildPath = path;
                p.pendingCrit = idx;
            }
        }
        ++tasksDone;
    }

    /** Task @p idx returned from wait(): children joined. */
    void
    onWaitExit(Idx idx)
    {
        if (idx == none)
            return;
        Entry &e = entries[idx];
        if (e.maxChildPath > e.ownPos) {
            e.ownPos = e.maxChildPath;
            e.critChild = e.pendingCrit;
        }
        e.maxChildPath = 0;
        e.pendingCrit = none;
    }

    /** Total instructions over all tasks. */
    uint64_t work() const { return totalWork; }

    /** Critical path length (valid after the root task finished). */
    uint64_t
    span() const
    {
        return entries.empty() ? 0 : entries[0].ownPos;
    }

    double
    parallelism() const
    {
        uint64_t s = span();
        return s ? static_cast<double>(work()) / s : 0.0;
    }

    uint64_t numTasks() const { return tasksDone; }

    /**
     * One link of the critical-path task chain: the task (by spawn
     * order index), the position it was spawned at on its parent's
     * serial timeline, and its completion path spawnPos + ownPos —
     * the longest instruction path from the root's start to this
     * task's last joined instruction.
     */
    struct ChainNode
    {
        Idx idx;
        uint64_t spawnPos;
        uint64_t pathInsts;
    };

    /**
     * The critical-path task chain from the root downward: each link
     * is the child whose joined completion path set its parent's span
     * contribution. Valid after the root finished; deterministic
     * (task indices are spawn order, ties resolve to the first
     * maximal child). A task executing strictly serial code yields a
     * one-link chain (the root itself).
     */
    std::vector<ChainNode>
    criticalChain() const
    {
        std::vector<ChainNode> chain;
        if (entries.empty())
            return chain;
        Idx at = 0;
        while (at != none) {
            const Entry &e = entries[at];
            chain.push_back({at, e.spawnPos, e.spawnPos + e.ownPos});
            at = e.critChild;
        }
        return chain;
    }

    /** Average instructions per task (Table III's IPT). */
    double
    instsPerTask() const
    {
        return tasksDone ? static_cast<double>(totalWork) / tasksDone
                         : 0.0;
    }

  private:
    struct Entry
    {
        Idx parent = none;
        uint64_t spawnPos = 0;     //!< parent position at spawn
        uint64_t ownPos = 0;       //!< serial position within the task
        uint64_t maxChildPath = 0; //!< longest joined child path
        Idx critChild = none;      //!< child whose join set ownPos
        Idx pendingCrit = none;    //!< argmax child of maxChildPath
    };

    std::vector<Entry> entries;
    uint64_t totalWork = 0;
    uint64_t tasksDone = 0;
};

} // namespace bigtiny::rt

#endif // BIGTINY_CORE_DAG_PROFILER_HH
