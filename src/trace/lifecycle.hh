/**
 * @file
 * Deterministic task-lifecycle observability (DESIGN.md §16).
 *
 * The LifecycleTracker stamps every task's lifecycle — enqueued
 * (spawn), stolen (0..n hops), started and finished (execTask) — with
 * the simulated cycle or cores of each event, and folds them into:
 *
 *  - exact log2-bucketed latency histograms of task *sojourn* time
 *    (enqueue -> finish: how long work waits plus runs) and task
 *    *execution* time (start -> finish: the wall interval on the
 *    executing core, inclusive of nested child tasks run during the
 *    task's own wait()s);
 *  - a per-(src-cluster x dst-cluster) steal-distance heatmap over
 *    the generalized sim::Topology, split into local (intra-cluster)
 *    and remote (cross-cluster) totals.
 *
 * Everything is integer arithmetic over simulated timestamps — no
 * floating-point accumulation — so the aggregates are byte-identical
 * across hosts, --jobs counts, and farm workers. Like the tracer and
 * the DAG profiler, the tracker is host-side only: recording never
 * charges simulated cycles, so enabling it cannot perturb the model
 * (cycle counts are identical with tracking on and off).
 *
 * The only caller is rt::Runtime's task-event fan-out, behind one
 * null check (the tracker exists only when
 * SystemConfig::trackLifecycle is set). Per-task records are indexed
 * by the DAG profiler's task index: the fan-out creates both in the
 * same event, in the same order.
 */

#ifndef BIGTINY_TRACE_LIFECYCLE_HH
#define BIGTINY_TRACE_LIFECYCLE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace bigtiny::trace
{

/**
 * Exact log2-bucketed latency histogram. Bucket 0 holds the value 0;
 * bucket b >= 1 holds [2^(b-1), 2^b). Percentiles resolve to the
 * inclusive upper bound of the bucket containing the rank-th smallest
 * sample (clamped to the observed max), computed purely from integer
 * bucket counts — deterministic regardless of insertion order.
 */
struct LatencyHist
{
    static constexpr int numBuckets = 65;

    std::array<uint64_t, numBuckets> buckets{};
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t minV = ~0ull;
    uint64_t maxV = 0;

    /** Bucket index of @p v: 0 for 0, else floor(log2 v) + 1. */
    static int
    bucketOf(uint64_t v)
    {
        return v ? 64 - __builtin_clzll(v) : 0;
    }

    /** Inclusive lower bound of bucket @p b. */
    static uint64_t
    bucketLo(int b)
    {
        return b ? 1ull << (b - 1) : 0;
    }

    /** Inclusive upper bound of bucket @p b. */
    static uint64_t
    bucketHi(int b)
    {
        if (b == 0)
            return 0;
        return b >= 64 ? ~0ull : (1ull << b) - 1;
    }

    void
    add(uint64_t v)
    {
        ++count;
        sum += v;
        if (v < minV)
            minV = v;
        if (v > maxV)
            maxV = v;
        ++buckets[bucketOf(v)];
    }

    /** Value at quantile @p num / @p den (e.g. 999/1000 for p99.9):
     *  the bucket upper bound at rank ceil(count * num / den). */
    uint64_t percentile(uint64_t num, uint64_t den) const;
};

class LifecycleTracker
{
  public:
    static constexpr Cycle noCycle = ~Cycle(0);

    /** @param num_clusters cluster count of the topology (>= 1). */
    explicit LifecycleTracker(int num_clusters);

    /** A task is created; its record index is numTasks() before the
     *  call. */
    void onCreate() { recs.emplace_back(); }

    /**
     * Events of the task with record index @p task. An index no
     * onCreate produced (a corrupt frame read under fault injection)
     * records nothing.
     * @{
     */
    void
    onEnqueue(uint64_t task, Cycle now)
    {
        if (TaskRec *r = rec(task))
            r->enqueued = now;
    }

    void
    onStart(uint64_t task, Cycle now)
    {
        if (TaskRec *r = rec(task))
            r->started = now;
    }

    void onFinish(uint64_t task, Cycle now);
    /** @} */

    /** A task moved from a core in cluster @p src (the victim) to
     *  one in cluster @p dst (the thief). */
    void onSteal(int src, int dst);

    /** Enqueue -> finish latency over all finished, enqueued tasks
     *  (the root runs inline and is never enqueued). */
    const LatencyHist &sojourn() const { return sojournH; }

    /** Start -> finish wall interval over all finished tasks
     *  (includes nested children executed inside the task's waits). */
    const LatencyHist &exec() const { return execH; }

    uint64_t numTasks() const { return recs.size(); }
    int clusters() const { return numCl; }

    /** Steals whose victim cluster == thief cluster. */
    uint64_t stealsLocal() const { return localSteals; }
    /** Steals that crossed a cluster boundary. */
    uint64_t stealsRemote() const { return remoteSteals; }

    /** Steal count victim-cluster @p src -> thief-cluster @p dst. */
    uint64_t
    heat(int src, int dst) const
    {
        return heatmap[static_cast<size_t>(src) * numCl + dst];
    }

    /** Row-major (src x dst) steal matrix, numClusters^2 entries. */
    const std::vector<uint64_t> &matrix() const { return heatmap; }

  private:
    /** One task's cycles (the runtime executes each task once). */
    struct TaskRec
    {
        Cycle enqueued = noCycle; //!< stays noCycle for the inline root
        Cycle started = 0;
    };

    TaskRec *
    rec(uint64_t task)
    {
        return task < recs.size() ? &recs[task] : nullptr;
    }

    int numCl;
    std::vector<TaskRec> recs;
    LatencyHist sojournH;
    LatencyHist execH;
    std::vector<uint64_t> heatmap;
    uint64_t localSteals = 0;
    uint64_t remoteSteals = 0;
};

} // namespace bigtiny::trace

#endif // BIGTINY_TRACE_LIFECYCLE_HH
