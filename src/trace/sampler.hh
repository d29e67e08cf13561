/**
 * @file
 * Interval sampler: periodic snapshots of the simulation's aggregate
 * statistics, recorded as per-interval deltas.
 *
 * Every sampleCycles simulated cycles the sampler captures the change
 * in the tiny-core cache stats (Fig. 6), the tiny-core time breakdown
 * (Fig. 7), the NoC traffic by message class (Fig. 8), and the ULI
 * counters since the previous sample — turning the paper's end-of-run
 * bars into curves over execution. Sampling is host-side only (zero
 * simulated cost) and hooks the deterministic scheduler loop, so the
 * time-series is byte-identical across hosts and --jobs counts.
 * Parallel runs add per-cluster steal columns, which rt::Runtime's
 * task-event fan-out feeds (DESIGN.md §9).
 */

#ifndef BIGTINY_TRACE_SAMPLER_HH
#define BIGTINY_TRACE_SAMPLER_HH

#include <array>
#include <ostream>
#include <vector>

#include "common/types.hh"
#include "sim/stats.hh"

namespace bigtiny::sim
{
class System;
} // namespace bigtiny::sim

namespace bigtiny::trace
{

/** One interval's worth of statistics deltas. */
struct Sample
{
    Cycle cycle = 0; //!< end of the interval (multiple of the period)

    // tiny-core L1 aggregate (all cores when there are no tiny cores)
    uint64_t l1Accesses = 0;
    uint64_t l1Misses = 0;
    uint64_t invLines = 0;
    uint64_t flushLines = 0;

    // tiny-core time breakdown
    std::array<uint64_t, sim::numTimeCats> timeByCat{};

    // NoC traffic
    std::array<uint64_t, sim::numMsgClasses> nocBytes{};
    uint64_t nocMsgs = 0;

    // ULI network
    uint64_t uliReqs = 0;
    uint64_t uliNacks = 0;
    Cycle uliHandlerCycles = 0;

    // Per-cluster steal attempts, and attempts minus failures (an
    // attempt in flight counts until it fails), by thief's cluster.
    // Empty for serial runs — the CSV/JSON columns are then omitted.
    std::vector<uint64_t> clStealAtt;
    std::vector<uint64_t> clStealOk;
};

class IntervalSampler
{
  public:
    explicit IntervalSampler(Cycle interval);

    /** Next cycle boundary a sample is due at. */
    Cycle nextDue() const { return next; }

    /**
     * Record one sample per period boundary in (lastDue, now]; called
     * by the scheduler when an agent first reaches or passes next.
     */
    void sampleUpTo(sim::System &sys, Cycle now);

    /** Record a final partial-interval sample at end of run. */
    void finish(sim::System &sys);

    /** Take per-cluster steal columns; a Runtime's steal-attempt
     *  event then feeds the two counters below. */
    void
    trackStealClusters(int clusters)
    {
        stealAtt.assign(static_cast<size_t>(clusters), 0);
        stealOk.assign(static_cast<size_t>(clusters), 0);
    }

    void stealAttempted(int c) { ++stealAtt[c], ++stealOk[c]; }
    void stealFailed(int c) { --stealOk[c]; }

    const std::vector<Sample> &samples() const { return rows; }

    /** Tab-free CSV with a header row; one line per interval. */
    void writeCsv(std::ostream &os) const;

    /** The same series as a JSON document (schema in DESIGN.md §9). */
    void writeJson(std::ostream &os) const;

  private:
    /** Capture cumulative stats and append the delta row. */
    void capture(sim::System &sys, Cycle at);

    Cycle period;
    Cycle next;
    Cycle lastCaptured = 0;
    Sample prev; //!< cumulative snapshot at the previous sample
    std::vector<Sample> rows;
    std::vector<uint64_t> stealAtt; //!< this interval, per cluster
    std::vector<uint64_t> stealOk;  //!< this interval, mod 2^64
};

} // namespace bigtiny::trace

#endif // BIGTINY_TRACE_SAMPLER_HH
