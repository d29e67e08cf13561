/**
 * @file
 * perfbench — the BigTiny benchmark harness.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--work-dir DIR] [--trace-out FILE] [--faults SPEC]
 *             [--small]
 *
 * Runs one named workload (see workloads.cc) repeatedly for --seconds
 * (at least three times), checks every run's output, and prints one
 * JSON object on its last line of standard output: the run counts,
 * the exact simulated cycle total, and the metrics with their units.
 *
 * Untraced (--trace 0) the metrics are the end-to-end ones: wall time,
 * set-up time, simulated cycles per host second, simulated cycles,
 * peak RSS and the fraction of runs that passed. Traced (--trace 1)
 * the harness alternates untraced and traced repetitions, records a
 * span around every public call it makes, adds the host-cost probes,
 * and reports the per-layer metrics, including the tracing overhead
 * (median traced minus median untraced wall time). --trace-out writes
 * the span log as JSON at exit.
 *
 * --faults injects a fault plan into every run and --small shrinks
 * every problem size; both exist for the harness's self-test. Unknown
 * arguments are rejected.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/sweep.hh"
#include "fault/fault.hh"
#include "perfbench.hh"

using namespace bigtiny;
using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    uint64_t seed = apps::AppParams{}.seed;
    double seconds = 10;
    bool trace = false;
    std::string workDir = ".";
    std::string traceOut;
    std::string faults;
    bool small = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--work-dir DIR] "
                 "[--trace-out FILE] [--faults SPEC] [--small]\n"
                 "workloads:",
                 why);
    for (const auto &n : workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

bool
parseU64(const std::string &s, uint64_t &out)
{
    if (s.empty() || s[0] == '-')
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (errno != 0 || *end != '\0')
        return false;
    out = v;
    return true;
}

/** Strict parser: every argument must be a known flag. */
Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            usage(("unexpected argument '" + arg + "'").c_str());
        std::string key = arg.substr(2), val;
        bool hasVal = false;
        if (auto eq = key.find('='); eq != std::string::npos) {
            val = key.substr(eq + 1);
            key = key.substr(0, eq);
            hasVal = true;
        }
        if (key == "small") {
            if (hasVal)
                usage("--small takes no value");
            a.small = true;
            continue;
        }
        static const char *const valued[] = {
            "workload",  "seed",      "seconds", "trace",
            "work-dir",  "trace-out", "faults"};
        if (std::find_if(std::begin(valued), std::end(valued),
                         [&](const char *k) { return key == k; }) ==
            std::end(valued))
            usage(("unknown argument '--" + key + "'").c_str());
        if (!hasVal) {
            if (i + 1 >= argc)
                usage(("--" + key + " needs a value").c_str());
            val = argv[++i];
        }
        if (key == "workload") {
            a.workload = val;
        } else if (key == "seed") {
            if (!parseU64(val, a.seed))
                usage("--seed must be a non-negative integer");
        } else if (key == "seconds") {
            char *end = nullptr;
            a.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end != '\0' || !(a.seconds > 0) ||
                a.seconds > 3600)
                usage("--seconds must be a number in (0, 3600]");
        } else if (key == "trace") {
            if (val != "0" && val != "1")
                usage("--trace must be 0 or 1");
            a.trace = val == "1";
        } else if (key == "work-dir") {
            a.workDir = val;
        } else if (key == "trace-out") {
            a.traceOut = val;
        } else if (key == "faults") {
            fault::FaultPlan plan;
            std::string err = fault::FaultPlan::tryParse(val, plan);
            if (!err.empty())
                usage(("bad --faults: " + err).c_str());
            a.faults = val;
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

double
ratio(uint64_t num, uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** One repetition of a workload. */
struct Iteration
{
    double wall = 0;     //!< construction to validated result
    double setup = 0;    //!< single runs: System + setup + Runtime
    double simSecs = 0;  //!< divisor of sim_cycles_per_s
    Phases phases;       //!< single runs: the run's phases
    std::vector<double> runSecs; //!< traced sweeps: one per run
    double jsonSecs = 0;         //!< sweeps: writeSweepJson
    Counts counts;               //!< single runs: full counts
    std::vector<std::string> rows; //!< sweeps: serialized results
    uint64_t cycles = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool cold = true; //!< sweeps: every run was simulated, none replayed
};

Iteration
runSingle(const Workload &w, SpanLog *log)
{
    Iteration it;
    Scope whole(log, "workload." + w.name);
    auto t0 = Clock::now();
    Outcome o = phasedRun(w.specs[0], w.lifecycle, log, it.phases,
                          it.counts);
    it.wall = secondsSince(t0);
    it.setup = it.phases.setup();
    it.simSecs = it.phases.run;
    it.cycles = it.counts.cycles;
    it.attempted = 1;
    it.failed = o.ok() ? 0 : 1;
    return it;
}

/** One cold sweep, from an empty result cache to the written JSON. */
Iteration
runSweep(const Workload &w, const std::string &workDir, SpanLog *log)
{
    Iteration it;
    const std::string stem =
        workDir + "/sweep-" + std::to_string(getpid());
    const std::string cachePath = stem + ".cache";
    const std::string jsonPath = stem + ".json";
    std::remove(cachePath.c_str());
    std::remove(jsonPath.c_str());

    std::mutex mu;
    std::vector<bench::RunResult> results;
    Scope whole(log, "workload." + w.name);
    auto t0 = Clock::now();
    {
        bench::ResultCache cache(cachePath, true);
        if (log) {
            // Replaces runOne as the cache's miss path only to wrap it
            // in a span; the simulation itself is unchanged.
            int parent = whole.id();
            cache.setRunnerForTest([&, parent](const bench::RunSpec &s) {
                double secs = 0;
                bench::RunResult r;
                {
                    Scope sc(log, "bench.runOne", &secs, parent);
                    r = bench::runOne(s);
                }
                std::lock_guard<std::mutex> lock(mu);
                it.runSecs.push_back(secs);
                return r;
            });
        }
        bench::Sweep sweep(cache, w.jobs);
        sweep.addAll(w.specs);
        {
            Scope s(log, "bench.Sweep.run");
            results = sweep.run();
        }
        {
            Scope s(log, "bench.writeSweepJson", &it.jsonSecs);
            bench::writeSweepJson(jsonPath, w.specs, results,
                                  cache.degraded());
        }
        it.cold = cache.simulatedRuns() == w.specs.size();
    }
    std::remove(cachePath.c_str());
    std::remove(jsonPath.c_str());
    it.wall = secondsSince(t0);
    it.simSecs = it.wall; // the whole sweep is the divisor
    for (const auto &r : results) {
        it.cycles += r.cycles;
        it.rows.push_back(bench::serializeResult(r));
        ++it.attempted;
        if (r.failed || !r.valid)
            ++it.failed;
    }
    if (!it.cold)
        std::fprintf(stderr, "perfbench: sweep was not cold\n");
    return it;
}

/** The exact simulated counts, one line on standard error. */
void
printCounts(const std::string &workload, const Counts &c)
{
    std::fprintf(
        stderr,
        "perfbench: %s counts: runs %llu, cycles %llu, l1 accesses %llu, "
        "l1 misses %llu, amos %llu, l2 hits %llu, l2 misses %llu, "
        "dram %llu, noc bytes %llu, inv lines %llu, flush lines %llu, "
        "tasks %llu, steal attempts %llu, steals %llu, uli reqs %llu\n",
        workload.c_str(), (unsigned long long)c.runs,
        (unsigned long long)c.cycles, (unsigned long long)c.l1Accesses,
        (unsigned long long)c.l1Misses, (unsigned long long)c.amos,
        (unsigned long long)c.l2Hits, (unsigned long long)c.l2Misses,
        (unsigned long long)c.dramAccesses, (unsigned long long)c.nocBytes,
        (unsigned long long)c.invLines, (unsigned long long)c.flushLines,
        (unsigned long long)c.tasks, (unsigned long long)c.stealAttempts,
        (unsigned long long)c.steals, (unsigned long long)c.uliReqs);
}

class Report
{
  public:
    void
    metric(const char *name, double value, const char *unit)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        entries.push_back(std::string("\"") + name +
                          "\": {\"value\": " + buf + ", \"unit\": \"" +
                          unit + "\"}");
    }

    std::string
    json() const
    {
        std::string s = "{";
        for (size_t i = 0; i < entries.size(); ++i)
            s += (i ? ", " : "") + entries[i];
        return s + "}";
    }

  private:
    std::vector<std::string> entries;
};

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    Workload w;
    if (!makeWorkload(args.workload, args.seed, args.small, args.faults,
                      w))
        usage(("unknown workload '" + args.workload + "'").c_str());

    std::unique_ptr<SpanLog> log;
    if (args.trace)
        log = std::make_unique<SpanLog>();

    auto once = [&](SpanLog *l) {
        return w.sweep ? runSweep(w, args.workDir, l) : runSingle(w, l);
    };

    // A sweep's per-phase split comes from a serial pass over its
    // runs, since the sweep's own runs cannot be split from outside.
    Phases decompPhases;
    Counts decompCounts;
    uint64_t attempted = 0, failed = 0;
    if (args.trace && w.sweep) {
        Scope s(log.get(), "decompose." + w.name);
        for (const auto &spec : w.specs) {
            Outcome o = phasedRun(spec, w.lifecycle, log.get(),
                                  decompPhases, decompCounts);
            ++attempted;
            failed += o.ok() ? 0 : 1;
        }
    }

    const int minIterations = 3;
    std::vector<Iteration> plain, traced;
    auto t0 = Clock::now();
    do {
        // Traced mode alternates which of a pair goes first, so drift
        // in host speed does not bias the tracing overhead.
        bool tracedFirst = args.trace && plain.size() % 2 == 1;
        if (tracedFirst)
            traced.push_back(once(log.get()));
        plain.push_back(once(nullptr));
        if (args.trace && !tracedFirst)
            traced.push_back(once(log.get()));
    } while (secondsSince(t0) < args.seconds ||
             plain.size() + traced.size() < minIterations);

    // Set-up time is a median over several set-ups: a single run's
    // repetitions, topped up with set-up-only passes while cheap. A
    // sweep's set-up is the summed System + App::setup + Runtime
    // construction of its runs, from serial set-up-only passes
    // (bench::runOne cannot be split from outside).
    std::vector<double> setups;
    if (!args.trace) {
        if (!w.sweep)
            for (const auto &it : plain)
                setups.push_back(it.setup);
        double extra = 0;
        while (setups.size() < 3 ||
               (setups.size() < 7 && extra < 2.0)) {
            double secs = 0;
            for (const auto &spec : w.specs)
                secs += setupOnly(spec, w.lifecycle);
            setups.push_back(secs);
            extra += secs;
        }
        std::fprintf(stderr, "perfbench: %s set-up samples (s):",
                     w.name.c_str());
        for (double x : setups)
            std::fprintf(stderr, " %.4f", x);
        std::fprintf(stderr, "\n");
    }

    for (size_t i = 0; i < plain.size(); ++i)
        std::fprintf(stderr, "perfbench: %s repetition %zu: wall %.4f s, "
                             "simulating %.4f s\n",
                     w.name.c_str(), i, plain[i].wall, plain[i].simSecs);

    // Every repetition must reproduce the first one's simulated counts.
    bool repeatOk = true, coldOk = true;
    const Iteration &ref = plain.front();
    for (const auto *set : {&plain, &traced}) {
        for (const auto &it : *set) {
            attempted += it.attempted;
            failed += it.failed;
            coldOk &= it.cold;
            repeatOk &= it.cycles == ref.cycles && it.rows == ref.rows &&
                        it.counts == ref.counts;
        }
    }
    if (args.trace && w.sweep && decompCounts.cycles != ref.cycles)
        repeatOk = false;
    if (!repeatOk)
        std::fprintf(stderr, "perfbench: simulated counts differ between "
                             "repetitions\n");
    if (w.sweep)
        for (size_t i = 0; i < ref.rows.size(); ++i)
            std::fprintf(stderr, "perfbench: %s result %s\n",
                         w.specs[i].key().c_str(), ref.rows[i].c_str());
    else
        printCounts(w.name, ref.counts);

    auto med = [](const std::vector<Iteration> &v, auto field) {
        std::vector<double> xs;
        for (const auto &it : v)
            xs.push_back(field(it));
        return median(xs);
    };

    Report rep;
    bool probesOk = true;
    if (!args.trace) {
        rep.metric("wall_s", med(plain, [](auto &i) { return i.wall; }),
                   "s");
        rep.metric("setup_s", median(setups), "s");
        rep.metric("sim_cycles_per_s",
                   med(plain,
                       [](auto &i) {
                           return static_cast<double>(i.cycles) /
                                  i.simSecs;
                       }),
                   "1/s");
        rep.metric("sim_cycles", static_cast<double>(ref.cycles),
                   "cycles");
        rep.metric("peak_rss_mb", peakRssMb(), "MB");
        rep.metric("pass_frac",
                   1.0 - ratio(failed, attempted), "ratio");
    } else {
        ProbeResult pr = runProbes(w.probeConfig, log.get());
        probesOk = pr.ok;

        // Phases: the traced single run, or the sweep's serial pass.
        Phases ph;
        Counts c;
        if (w.sweep) {
            ph = decompPhases;
            c = decompCounts;
        } else {
            auto pick = [&](auto field) {
                return med(traced, [&](auto &i) {
                    return field(i.phases);
                });
            };
            ph.systemCtor = pick([](auto &p) { return p.systemCtor; });
            ph.appSetup = pick([](auto &p) { return p.appSetup; });
            ph.runtimeCtor = pick([](auto &p) { return p.runtimeCtor; });
            ph.run = pick([](auto &p) { return p.run; });
            ph.validate = pick([](auto &p) { return p.validate; });
            c = traced.front().counts;
        }

        // Per-run spread: the sweep's runs, or the single run itself.
        std::vector<double> runP50, runMax, eff, json;
        for (const auto &it : traced) {
            std::vector<double> runs = it.runSecs;
            if (runs.empty())
                runs.push_back(it.phases.total);
            double sum = 0;
            for (double r : runs)
                sum += r;
            runP50.push_back(median(runs));
            runMax.push_back(*std::max_element(runs.begin(), runs.end()));
            eff.push_back(sum / (it.wall * w.jobs));
            json.push_back(it.jsonSecs);
        }

        rep.metric("sim.system_ctor_s", ph.systemCtor, "s");
        rep.metric("apps.setup_s", ph.appSetup, "s");
        rep.metric("core.runtime_ctor_s", ph.runtimeCtor, "s");
        rep.metric("sim.run_s", ph.run, "s");
        rep.metric("apps.validate_s", ph.validate, "s");
        rep.metric("sim.host_ns_per_core_cycle",
                   ph.run * 1e9 / static_cast<double>(c.coreCycles),
                   "ns");
        rep.metric("sim.fiber_switch_ns", pr.fiberSwitchNs, "ns");
        rep.metric("sim.event_ns", pr.eventNs, "ns");
        rep.metric("mem.l1_hit_ns", pr.l1HitNs, "ns");
        rep.metric("mem.l2_hit_ns", pr.l2HitNs, "ns");
        rep.metric("mem.dram_ns", pr.dramNs, "ns");
        rep.metric("mem.inv_line_ns", pr.invLineNs, "ns");
        rep.metric("mem.flush_line_ns", pr.flushLineNs, "ns");
        rep.metric("mem.l1_accesses", static_cast<double>(c.l1Accesses),
                   "count");
        rep.metric("mem.l1_hit_ratio",
                   1.0 - ratio(c.l1Misses, c.l1Accesses), "ratio");
        rep.metric("mem.l1_misses", static_cast<double>(c.l1Misses),
                   "count");
        rep.metric("mem.amos", static_cast<double>(c.amos), "count");
        rep.metric("mem.l2_hits", static_cast<double>(c.l2Hits), "count");
        rep.metric("mem.l2_misses", static_cast<double>(c.l2Misses),
                   "count");
        rep.metric("mem.dram_accesses",
                   static_cast<double>(c.dramAccesses), "count");
        rep.metric("mem.dram_queue_cycles",
                   static_cast<double>(c.dramQueueCycles), "cycles");
        rep.metric("mem.noc_bytes", static_cast<double>(c.nocBytes),
                   "bytes");
        rep.metric("mem.inv_lines", static_cast<double>(c.invLines),
                   "count");
        rep.metric("mem.flush_lines", static_cast<double>(c.flushLines),
                   "count");
        rep.metric("core.tasks", static_cast<double>(c.tasks), "count");
        rep.metric("core.steal_attempts",
                   static_cast<double>(c.stealAttempts), "count");
        rep.metric("core.steal_success_ratio",
                   ratio(c.steals, c.stealAttempts), "ratio");
        rep.metric("uli.reqs", static_cast<double>(c.uliReqs), "count");
        rep.metric("uli.ack_ratio", ratio(c.uliAcks, c.uliReqs), "ratio");
        rep.metric("sim.sync_frac", ratio(c.syncCycles, c.coreTime),
                   "ratio");
        rep.metric("sim.idle_frac", ratio(c.idleCycles, c.coreTime),
                   "ratio");
        rep.metric("bench.run_s_p50", median(runP50), "s");
        rep.metric("bench.run_s_max", median(runMax), "s");
        rep.metric("bench.parallel_eff", median(eff), "ratio");
        rep.metric("bench.sweep_json_s", median(json), "s");
        rep.metric("trace.overhead_s",
                   med(traced, [](auto &i) { return i.wall; }) -
                       med(plain, [](auto &i) { return i.wall; }),
                   "s");
        if (!args.traceOut.empty())
            log->writeJson(args.traceOut);
    }

    bool correct = failed == 0 && repeatOk && coldOk && probesOk;
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"repeat_ok\": %s, \"cold_ok\": %s, \"probes_ok\": %s, "
                "\"iterations\": %zu, \"sim_cycles\": %llu, "
                "\"metrics\": %s}\n",
                w.name.c_str(), (unsigned long long)args.seed,
                args.trace ? 1 : 0, correct ? "true" : "false",
                (unsigned long long)attempted,
                (unsigned long long)failed, repeatOk ? "true" : "false",
                coldOk ? "true" : "false", probesOk ? "true" : "false",
                plain.size() + traced.size(),
                (unsigned long long)ref.cycles, rep.json().c_str());
    return 0;
}
