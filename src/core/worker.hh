/**
 * @file
 * Worker: one per core; the guest-visible face of the runtime.
 *
 * Applications receive a Worker& and use its TBB/Cilk-like API
 * (paper Figure 2): newTask/setRefCount/spawn/wait at the low level,
 * parallelFor/parallelInvoke at the high level, plus pass-throughs to
 * the core's simulated loads/stores/AMOs for user data.
 */

#ifndef BIGTINY_CORE_WORKER_HH
#define BIGTINY_CORE_WORKER_HH

#include <functional>
#include <unordered_set>
#include <vector>

#include "core/runtime.hh"
#include "core/steal.hh"
#include "core/task.hh"
#include "sim/core.hh"

namespace bigtiny::rt
{

class Worker
{
  public:
    Worker(Runtime &rt, sim::Core &core, int wid);

    // ------------------------------------------------------------------
    // Low-level task API (paper Figure 2a)
    // ------------------------------------------------------------------

    /**
     * Allocate and initialize a task frame. The parent is the task
     * currently executing on this worker. Arguments land in the
     * frame's inline slots.
     */
    Addr newTask(TaskFn fn, std::initializer_list<uint64_t> args = {});

    /** Read/write an argument slot of a task frame (guest access). */
    uint64_t arg(Addr task, int i);
    void setArg(Addr task, int i, uint64_t v);

    /**
     * Set the reference count of the *current* task before spawning
     * that many children (TBB set_ref_count discipline: must precede
     * the first spawn so no child can race the write).
     */
    void setRefCount(int64_t n);

    /** Enqueue @p task on this worker's deque (Figure 3 spawn). */
    void spawn(Addr task);

    /**
     * spawn() plus a task-to-data affinity hint: @p data_addr is
     * where the task's working set lives, and locality-aware steal
     * policies may advertise the task to thieves in the cluster that
     * homes that data. Scheduling metadata only — identical simulated
     * behavior to spawn() under policies that ignore hints.
     */
    void spawnWithAffinity(Addr task, Addr data_addr);

    /**
     * Wait until every spawned child of the current task has joined,
     * executing and stealing tasks meanwhile (Figure 3 wait).
     */
    void wait();

    // ------------------------------------------------------------------
    // High-level templated patterns (paper Figure 2b/2c)
    // ------------------------------------------------------------------

    using RangeBody = std::function<void(Worker &, int64_t, int64_t)>;
    using Body = std::function<void(Worker &)>;

    /**
     * parallel_for over [lo, hi): recursive binary splitting down to
     * @p grain iterations per leaf task; the body receives sub-ranges.
     */
    void parallelFor(int64_t lo, int64_t hi, int64_t grain,
                     const RangeBody &body);

    /** parallel_invoke: run two callables as parallel tasks. */
    void parallelInvoke(const Body &a, const Body &b);

    /**
     * Host-closure integrity (see Runtime::liveBodies): the parallel
     * patterns store host closure addresses in task frames, and a
     * faulty memory model can hand a stale or corrupted value back.
     * Patterns register their closures while tasks may reference
     * them; thunks translate frame bits back to a pointer through
     * checkBody, which raises a structured DequeCorruption failure —
     * instead of host UB — when the bits name no live closure.
     */
    void registerBody(const void *p);
    void unregisterBody(const void *p);
    const void *checkBody(Addr task, uint64_t bits);

    // ------------------------------------------------------------------
    // Simulated-memory convenience pass-throughs
    // ------------------------------------------------------------------

    template <typename T>
    T
    ld(Addr a)
    {
        return core.ld<T>(a);
    }

    template <typename T>
    void
    st(Addr a, T v)
    {
        core.st<T>(a, v);
    }

    void work(uint64_t cycles) { core.work(cycles); }

    int id() const { return wid; }
    int numWorkers() const { return rt.numWorkers(); }

    /** True while a task is executing on this worker. */
    bool curTaskActive() const { return curTask != 0; }

    sim::Core &core;
    Runtime &rt;
    sim::RuntimeStats stats;

    // ------------------------------------------------------------------
    // Runtime internals (public for Runtime and tests)
    // ------------------------------------------------------------------

    /** Guest entry point; @p root non-null only on worker 0. */
    void guestMain(const std::function<void(Worker &)> *root);

    /** Execute a task: dispatch through its frame's function field. */
    void execTask(Addr t);

  private:
    void waitBaseline(Addr p);
    void waitHcc(Addr p);
    void waitDts(Addr p);

    void topLoop();

    /** One steal attempt + execution; true if a task was executed. */
    bool stealOnce();

    /** Pop + run one task from the own deque (batch-steal drain). */
    bool popOwnTask();

    /** Steal-half: pop half the victim's remainder into @p out. */
    void grabHalf(TaskDeque &vq, std::vector<Addr> *out);

    /** Enqueue batch-stolen tasks onto the own deque. */
    void transferStolen(const std::vector<Addr> &tasks);

    /** Consume the batch-stolen mark of @p t (remote parent). */
    bool takenRemotely(Addr t);

    /** HCC steal-path invalidate elision (fault injection). */
    bool elideStealInv();

    /** Exponential backoff after a failed steal attempt. */
    void idleBackoff();

    /** DTS ULI handler (runs on this worker's core as the victim). */
    void uliHandler(CoreId thief);

    /** Join an executed task into its parent (shared-memory rc). */
    void joinShared(Addr t);

    /** Tell the coherence checker a joined frame is dead. */
    void retire(Addr t);

    /** DTS join: plain decrement unless a child was stolen. */
    void joinDtsLocal(Addr t);

    int chooseVictim();

    /** Flush profiler accounting up to the core's instruction count. */
    void accrue();

    int wid;
    unsigned failStreak = 0;
    /** Batch-stolen tasks parked on our deque (remote parents). */
    std::unordered_set<Addr> remoteTasks;
    Addr curTask = 0;
    DagProfiler::Idx curProf = DagProfiler::none;
    uint64_t lastInst = 0;
};

} // namespace bigtiny::rt

#endif // BIGTINY_CORE_WORKER_HH
