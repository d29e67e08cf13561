/**
 * @file
 * Shared pieces of the benchmark harness: the span log, the workload
 * table, the phased single run, and the host-cost probes.
 *
 * The harness drives every layer from outside through its public
 * functions — sim::System, apps::App, rt::Runtime, mem::MemorySystem,
 * sim::Fiber, sim::EventQueue, bench::Sweep — and times the calls with
 * std::chrono::steady_clock. Spans are recorded only in traced mode;
 * the durations they cover are measured the same way in both modes,
 * so a traced run differs from an untraced one only by the span
 * bookkeeping.
 */

#ifndef BIGTINY_PERFBENCH_HH
#define BIGTINY_PERFBENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "bench/driver.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of @p v (0 when empty). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * In-memory span log: name, start, end and parent of every recorded
 * interval, in seconds since the log was created. Thread-safe (sweep
 * runs record from pool threads). Written out once, at exit.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double start = 0;
        double end = -1; //!< -1 while open
        int parent = -1; //!< index into the log; -1 = root
    };

    int open(const std::string &name, int parent);
    void close(int id);
    void writeJson(const std::string &path) const;

  private:
    Clock::time_point origin = Clock::now();
    mutable std::mutex mu;
    std::vector<Span> spans; //!< guarded by mu
};

/**
 * Times one call into a layer. Always measures (adding the duration
 * to @p out when given); also records a span when @p log is non-null.
 * A Scope nested on the same thread becomes the child of the
 * enclosing one; pass @p parent to attach a span opened on a pool
 * thread to a span of the main thread.
 */
class Scope
{
  public:
    static constexpr int inherit = -2;

    Scope(SpanLog *log, const std::string &name, double *out = nullptr,
          int parent = inherit);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** This span's id, or -1 when not tracing. */
    int id() const { return spanId; }

  private:
    SpanLog *log;
    double *out;
    Clock::time_point t0;
    int spanId = -1;
    int savedCurrent = -1;
};

/** Exact simulated counts of one or more runs (public stats accessors). */
struct Counts
{
    uint64_t runs = 0;
    uint64_t cycles = 0;
    uint64_t coreCycles = 0; //!< Σ cycles × cores
    uint64_t l1Accesses = 0;
    uint64_t l1Misses = 0;
    uint64_t amos = 0;
    uint64_t l2Hits = 0;
    uint64_t l2Misses = 0;
    uint64_t dramAccesses = 0;
    uint64_t dramQueueCycles = 0;
    uint64_t nocBytes = 0;
    uint64_t invLines = 0;
    uint64_t flushLines = 0;
    uint64_t tasks = 0;
    uint64_t stealAttempts = 0;
    uint64_t steals = 0;
    uint64_t uliReqs = 0;
    uint64_t uliAcks = 0;
    uint64_t syncCycles = 0;
    uint64_t idleCycles = 0;
    uint64_t coreTime = 0; //!< Σ per-core time over all categories

    void add(const Counts &o);
    bool operator==(const Counts &) const = default;
};

/** Host seconds spent in each public call; phasedRun adds to them. */
struct Phases
{
    double systemCtor = 0;
    double appSetup = 0;
    double runtimeCtor = 0;
    double run = 0;      //!< Runtime::run
    double validate = 0; //!< drainAll + App::validate
    double total = 0;    //!< the whole run, construction to verdict

    double setup() const { return systemCtor + appSetup + runtimeCtor; }
};

/** How one simulation ended. */
struct Outcome
{
    bool valid = false;
    bool simFailure = false;
    uint64_t violations = 0;

    bool ok() const { return valid && !simFailure && violations == 0; }
};

/** One named workload: a single run, or a sweep over many specs. */
struct Workload
{
    std::string name;
    std::vector<bigtiny::bench::RunSpec> specs;
    bool sweep = false;
    bool lifecycle = false; //!< runOne forces it on for sweep runs
    int jobs = 1;
    std::string probeConfig; //!< machine the load/fiber/event probes use
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name for @p seed; @p small shrinks every problem
 * size for the self-test. Returns false on an unknown name.
 */
bool makeWorkload(const std::string &name, uint64_t seed, bool small,
                  const std::string &faults, Workload &out);

/**
 * Construct, set up, run, drain and validate one spec, timing each
 * public call. Mirrors bench::runOne (which cannot be split into
 * phases from outside) and never throws on a simulation failure.
 */
Outcome phasedRun(const bigtiny::bench::RunSpec &spec, bool lifecycle,
                  SpanLog *log, Phases &ph, Counts &counts);

/**
 * Construct and set up one spec without running it (System + App::setup
 * + Runtime); returns the seconds taken, teardown excluded.
 */
double setupOnly(const bigtiny::bench::RunSpec &spec, bool lifecycle);

/** Host cost of the simulator's primitives, from standalone objects. */
struct ProbeResult
{
    double fiberSwitchNs = 0;
    double eventNs = 0;
    double l1HitNs = 0;
    double l2HitNs = 0;
    double dramNs = 0;
    double invLineNs = 0;
    double flushLineNs = 0;
    /** False when an address stream missed the level it targets. */
    bool ok = true;
};

ProbeResult runProbes(const std::string &config, SpanLog *log);

} // namespace perfbench

#endif // BIGTINY_PERFBENCH_HH
