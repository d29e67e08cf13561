/**
 * @file
 * The work-stealing runtime (paper Section III and IV).
 *
 * One Runtime drives one simulated System: it lays out per-worker task
 * deques and DTS mailboxes in simulated memory, binds a Worker to
 * every core, runs the root task on worker 0 with every other worker
 * in the stealing loop, and aggregates runtime statistics.
 *
 * Three scheduler variants reproduce paper Figure 3:
 *  - Baseline: per-deque locks only (hardware cache coherence).
 *  - Hcc:      locks plus cache_invalidate/cache_flush around every
 *              deque access and around stolen-task execution.
 *  - Dts:      direct task stealing via user-level interrupts; deques
 *              are private, and parent/child synchronization is elided
 *              unless a child was actually stolen (has_stolen_child).
 */

#ifndef BIGTINY_CORE_RUNTIME_HH
#define BIGTINY_CORE_RUNTIME_HH

#include <functional>
#include <memory>
#include <vector>

#include "common/flat_hash.hh"
#include "common/rng.hh"
#include "core/dag_profiler.hh"
#include "core/deque.hh"
#include "core/task.hh"
#include "sim/stats.hh"
#include "sim/system.hh"
#include "trace/lifecycle.hh"

namespace bigtiny::rt
{

class Worker;

/** Scheduler flavor (paper Figure 3 (a), (b), (c)). */
enum class SchedVariant
{
    Baseline,
    Hcc,
    Dts,
};

const char *schedVariantName(SchedVariant v);

class StealPolicy;

class Runtime
{
  public:
    /** Construct with an explicit scheduler variant. */
    Runtime(sim::System &sys, SchedVariant variant);

    /** Construct with the variant implied by the system config. */
    explicit Runtime(sim::System &sys)
        : Runtime(sys, defaultVariant(sys.config()))
    {}

    ~Runtime();

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    /**
     * DTS on a system with ULI, Hcc when any core runs a
     * software-centric protocol, Baseline otherwise.
     */
    static SchedVariant defaultVariant(const sim::SystemConfig &cfg);

    /**
     * Execute @p root as the root task on worker 0, with all other
     * workers stealing, until the root returns. May be called once.
     */
    void run(const std::function<void(Worker &)> &root);

    /** Aggregate runtime statistics over all workers. */
    sim::RuntimeStats totalStats() const;

    /** Allocate a fresh task frame (host-side; see task.hh). */
    Addr allocTaskFrame();

    TaskDeque &deque(int wid) { return *deques[wid]; }
    Addr mailbox(int wid) const { return mailboxes[wid]; }
    Addr doneFlag() const { return doneA; }
    Rng &rng(int wid) { return rngs[wid]; }
    Worker &worker(int wid) { return *workers[wid]; }
    int numWorkers() const { return static_cast<int>(workers.size()); }

    /**
     * Steal end used by the DTS ULI handler: the paper's Figure 3(c)
     * pseudocode pops the victim's own tail (legend: deq), while
     * classic work stealing takes the head. Default follows the
     * classic head steal; set true for the literal pseudocode.
     */
    bool dtsStealFromTail = false;

    /**
     * Victim-selection policy (src/core/steal.hh). Defaults to
     * uniform random, the paper's configuration. Replace before run()
     * with setStealPolicy; policies are per-Runtime (they carry
     * per-worker state).
     */
    StealPolicy &stealPolicy() { return *policy; }
    void setStealPolicy(std::unique_ptr<StealPolicy> p);
    /** Convenience: construct by name via makeStealPolicy. */
    void setStealPolicy(const std::string &name);

    DagProfiler profiler;

    /**
     * Task-lifecycle tracker (DESIGN.md §16); non-null only when
     * SystemConfig::trackLifecycle is set.
     */
    trace::LifecycleTracker *lifecycle() { return lifeTracker.get(); }

    // --- Task-event fan-out (DESIGN.md §9) ---------------------------
    // Each instrumentation site in worker.cc makes one of these calls.
    // They drive the DagProfiler, and behind one null check each the
    // lifecycle tracker, tracer and sampler. Host-side only.

    /**
     * A task or steal-attempt trace span, emitted on destruction —
     * also during FiberUnwind, so a steal span closes after the span
     * of the task it stole.
     */
    class Span
    {
      public:
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

        /** The steal attempt chose @p victim: its span starts now. */
        void
        chose(int victim)
        {
            open = true;
            arg = static_cast<uint64_t>(victim);
            t0 = rt.sys.core(wid).now();
        }

      private:
        friend class Runtime;
        Span(Runtime &rt, int wid, uint32_t cat, bool open, uint64_t arg)
            : rt(rt), wid(wid), cat(cat), open(open), arg(arg),
              t0(rt.sys.core(wid).now())
        {}

        Runtime &rt;
        int wid;
        uint32_t cat;     //!< trace::CatTask or trace::CatSteal
        bool open;        //!< has a span (not the root, not victimless)
        bool got = false; //!< the steal attempt took a task
        uint64_t arg;     //!< task frame, or steal victim
        Cycle t0;
    };

    /** A task is created under @p parent; returns its profiler
     *  index, which is also its lifecycle record index. */
    DagProfiler::Idx
    taskCreated(DagProfiler::Idx parent)
    {
        if (lifeTracker)
            lifeTracker->onCreate();
        return profiler.newTask(parent);
    }

    /** Worker @p wid spawned frame @p t onto its own deque. */
    void taskEnqueued(Addr t, int wid);

    /** Worker @p wid starts a steal attempt, before choosing a
     *  victim; the returned Span traces it. */
    [[nodiscard]] Span stealAttempted(int wid);

    /** Attempt @p steal took frame @p t (plus steal-half @p extras). */
    void taskStolen(Span &steal, Addr t, const std::vector<Addr> &extras);

    /** Worker @p wid's steal attempt failed (one cut short by a run's
     *  abort never fails: the sampler keeps counting it ok). */
    void
    stealFailed(int wid)
    {
        if (intervalSampler)
            intervalSampler->stealFailed(cfg.clusterOf(wid));
    }

    /** Task @p idx (frame @p t) starts on worker @p wid. Unless it
     *  is the inline root (@p dispatched false), it gets a span, closed
     *  with the returned Span, and its flow arrow's end. */
    [[nodiscard]] Span taskStarted(Addr t, DagProfiler::Idx idx, int wid,
                                   bool dispatched = true);

    /** Task @p idx finished on worker @p wid. */
    void
    taskFinished(DagProfiler::Idx idx, int wid)
    {
        profiler.onTaskDone(idx);
        if (lifeTracker)
            lifeTracker->onFinish(idx, sys.core(wid).now());
    }

    /** Task @p idx returned from wait(): its children joined. */
    void waitExited(DagProfiler::Idx idx) { profiler.onWaitExit(idx); }

    /** Trace @p owner's deque depth at @p now (functional reads). */
    void dequeDepth(int owner, Cycle now);

    /** Profiler index in frame @p t's metadata slot (none if unset),
     *  read from backing memory: only newTask's funcWrite sets the
     *  slot, and funcWrite updates backing memory and every copy. */
    DagProfiler::Idx
    taskIndex(Addr t)
    {
        uint64_t slot = 0;
        sys.mem().mainMemory().read(t + TaskLayout::profOff, &slot, 8);
        return static_cast<DagProfiler::Idx>(slot) - 1;
    }

    /** Exactly-once execution check (host-side debug bookkeeping). */
    common::FlatSet<Addr> executedTasks;

    /**
     * Host-pointer integrity registries. Task frames architecturally
     * hold two kinds of host pointers — the task function and the
     * parallel-pattern closure address — and a faulty memory model
     * (fault injection) can hand back stale or corrupted values.
     * Calling through one is host UB (a wild jump or write), so
     * newTask records every function pointer ever stored and the
     * parallel patterns keep their closures registered while live;
     * execTask and the pattern thunks refuse anything unregistered
     * with a structured DequeCorruption failure instead.
     */
    common::FlatSet<uint64_t> taskFns;
    std::vector<uint64_t> liveBodies;

    SchedVariant variant;
    sim::System &sys;
    const sim::SystemConfig &cfg;

  private:
    friend class Worker;

    std::vector<std::unique_ptr<TaskDeque>> deques;
    std::vector<Addr> mailboxes;
    Addr doneA = 0;
    std::vector<Rng> rngs;
    std::vector<std::unique_ptr<Worker>> workers;
    std::unique_ptr<StealPolicy> policy;
    std::unique_ptr<trace::LifecycleTracker> lifeTracker;
    trace::Tracer *eventTracer;
    trace::IntervalSampler *intervalSampler;
    bool ran = false;
};

} // namespace bigtiny::rt

#endif // BIGTINY_CORE_RUNTIME_HH
