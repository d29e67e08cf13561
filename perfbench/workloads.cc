/**
 * @file
 * Span log, workload table and the phased single run.
 */

#include <cstdio>
#include <fstream>
#include <memory>

#include "apps/registry.hh"
#include "bench/sweep.hh"
#include "core/runtime.hh"
#include "core/worker.hh"
#include "fault/failure.hh"
#include "fault/fault.hh"
#include "perfbench.hh"
#include "sim/system.hh"

using namespace bigtiny;

namespace perfbench
{

namespace
{

thread_local int currentSpan = -1;

/** The SystemConfig bench::runOne would build for @p spec. */
sim::SystemConfig
configFor(const bench::RunSpec &spec, bool lifecycle)
{
    sim::SystemConfig cfg = sim::configByName(spec.configName);
    cfg.checkCoherence = spec.checkCoherence;
    cfg.trackLifecycle = lifecycle;
    if (!spec.faultSpec.empty())
        cfg.faults = fault::FaultPlan::parse(spec.faultSpec);
    if (spec.maxCycles)
        cfg.watchdogCycles = spec.maxCycles;
    return cfg;
}

Counts
collect(sim::System &sys, rt::Runtime &runtime)
{
    Counts c;
    c.runs = 1;
    c.cycles = sys.elapsed();
    c.coreCycles = c.cycles * static_cast<uint64_t>(sys.numCores());
    auto cache = sys.aggregateCacheStats(false);
    c.l1Accesses = cache.accesses();
    c.l1Misses = cache.misses();
    c.amos = cache.amos;
    c.invLines = cache.invLines;
    c.flushLines = cache.flushLines;
    c.l2Hits = sys.mem().l2().hits;
    c.l2Misses = sys.mem().l2().misses;
    c.dramAccesses = sys.mem().dram().accesses();
    c.dramQueueCycles = sys.mem().dram().queueCycles();
    c.nocBytes = sys.mem().noc().stats().totalBytes();
    c.uliReqs = sys.uliNet().stats.reqs;
    c.uliAcks = sys.uliNet().stats.acks;
    auto cores = sys.aggregateCoreStats(false);
    c.syncCycles = cores.timeByCat[static_cast<size_t>(sim::TimeCat::Sync)];
    c.idleCycles = cores.timeByCat[static_cast<size_t>(sim::TimeCat::Idle)];
    c.coreTime = cores.totalTime();
    c.tasks = runtime.profiler.numTasks();
    auto rs = runtime.totalStats();
    c.stealAttempts = rs.stealAttempts;
    c.steals = rs.tasksStolen;
    return c;
}

bench::RunSpec
single(const char *app, const char *config, int64_t n, int64_t grain,
       uint64_t seed)
{
    bench::RunSpec s;
    s.app = app;
    s.configName = config;
    s.params.n = n;
    s.params.grain = grain;
    s.params.seed = seed;
    return s;
}

} // namespace

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

int
SpanLog::open(const std::string &name, int parent)
{
    double now = secondsSince(origin);
    std::lock_guard<std::mutex> lock(mu);
    spans.push_back(Span{name, now, -1, parent});
    return static_cast<int>(spans.size()) - 1;
}

void
SpanLog::close(int id)
{
    double now = secondsSince(origin);
    std::lock_guard<std::mutex> lock(mu);
    spans[static_cast<size_t>(id)].end = now;
}

void
SpanLog::writeJson(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu);
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    os << "{\"spans\": [\n";
    char buf[256];
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::snprintf(buf, sizeof buf,
                      "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                      "\"end_s\": %.9f, \"parent\": %d}%s\n",
                      i, s.name.c_str(), s.start, s.end, s.parent,
                      i + 1 < spans.size() ? "," : "");
        os << buf;
    }
    os << "]}\n";
}

Scope::Scope(SpanLog *log, const std::string &name, double *out,
             int parent)
    : log(log), out(out), t0(Clock::now())
{
    if (!log)
        return;
    savedCurrent = currentSpan;
    spanId = log->open(name, parent == inherit ? currentSpan : parent);
    currentSpan = spanId;
}

Scope::~Scope()
{
    if (out)
        *out += secondsSince(t0);
    if (!log)
        return;
    log->close(spanId);
    currentSpan = savedCurrent;
}

// ---------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------

void
Counts::add(const Counts &o)
{
    runs += o.runs;
    cycles += o.cycles;
    coreCycles += o.coreCycles;
    l1Accesses += o.l1Accesses;
    l1Misses += o.l1Misses;
    amos += o.amos;
    l2Hits += o.l2Hits;
    l2Misses += o.l2Misses;
    dramAccesses += o.dramAccesses;
    dramQueueCycles += o.dramQueueCycles;
    nocBytes += o.nocBytes;
    invLines += o.invLines;
    flushLines += o.flushLines;
    tasks += o.tasks;
    stealAttempts += o.stealAttempts;
    steals += o.steals;
    uliReqs += o.uliReqs;
    uliAcks += o.uliAcks;
    syncCycles += o.syncCycles;
    idleCycles += o.idleCycles;
    coreTime += o.coreTime;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "mm-mesi-64", "bfs-gwb-dts-64", "sweep-28", "nq-mesi-1024-hier"};
    return names;
}

bool
makeWorkload(const std::string &name, uint64_t seed, bool small,
             const std::string &faults, Workload &w)
{
    w = Workload{};
    w.name = name;
    if (name == "mm-mesi-64") {
        w.specs.push_back(single("cilk5-mm", "bt-mesi", small ? 32 : 256,
                                 small ? 8 : 16, seed));
        w.probeConfig = "bt-mesi";
    } else if (name == "bfs-gwb-dts-64") {
        w.specs.push_back(single("ligra-bfs", "bt-hcc-gwb-dts",
                                 small ? 2048 : 262144, 32, seed));
        w.probeConfig = "bt-hcc-gwb-dts";
    } else if (name == "nq-mesi-1024-hier") {
        const char *cfg = "bt-0b1024t@32x32/clusters=4x4/proto=mesi";
        w.specs.push_back(single("cilk5-nq", cfg, small ? 8 : 14, 3, seed));
        w.specs.back().stealPolicy = "hier";
        w.probeConfig = cfg;
    } else if (name == "sweep-28") {
        // Longest runs first: the short cilk5 runs then fill the pool's
        // tail, so the makespan depends less on host-thread timing.
        static const char *const sweepApps[] = {"ligra-bfs", "ligra-cc",
                                                "cilk5-mt", "cilk5-nq"};
        static const char *const sweepConfigs[] = {
            "bt-mesi",        "bt-hcc-dnv",     "bt-hcc-gwt",
            "bt-hcc-gwb",     "bt-hcc-dnv-dts", "bt-hcc-gwt-dts",
            "bt-hcc-gwb-dts"};
        for (const char *app : sweepApps)
            for (const char *cfg : sweepConfigs)
                w.specs.push_back(bench::RunSpec::forApp(app)
                                      .config(cfg)
                                      .scale(small ? 0.1 : 1.0)
                                      .seed(seed));
        w.sweep = true;
        w.lifecycle = true;
        w.jobs = bench::resolveJobs(0);
        w.probeConfig = "bt-hcc-gwb-dts";
    } else {
        return false;
    }
    for (auto &s : w.specs)
        s.faultSpec = faults;
    return true;
}

// ---------------------------------------------------------------------
// One run, phase by phase
// ---------------------------------------------------------------------

namespace
{

/** A set-up simulation; members are destroyed runtime first. */
struct Sim
{
    std::unique_ptr<sim::System> sys;
    std::unique_ptr<apps::App> app;
    std::unique_ptr<rt::Runtime> runtime;
};

/** System, App::setup and Runtime construction, each timed into @p ph. */
Sim
construct(const bench::RunSpec &spec, bool lifecycle, SpanLog *log,
          Phases &ph)
{
    Sim s;
    {
        Scope sc(log, "sim.System", &ph.systemCtor);
        s.sys = std::make_unique<sim::System>(configFor(spec, lifecycle));
    }
    {
        Scope sc(log, "apps.setup", &ph.appSetup);
        s.app = apps::makeApp(spec.app, spec.params);
        s.app->setup(*s.sys);
    }
    {
        Scope sc(log, "core.Runtime", &ph.runtimeCtor);
        s.runtime = std::make_unique<rt::Runtime>(*s.sys);
        if (!spec.stealPolicy.empty())
            s.runtime->setStealPolicy(spec.stealPolicy);
    }
    return s;
}

} // namespace

Outcome
phasedRun(const bench::RunSpec &spec, bool lifecycle, SpanLog *log,
          Phases &ph, Counts &counts)
{
    Outcome o;
    Scope whole(log, "bench.run", &ph.total);
    try {
        Sim s = construct(spec, lifecycle, log, ph);
        {
            Scope sc(log, "sim.run", &ph.run);
            s.runtime->run([&](rt::Worker &w) { s.app->runParallel(w); });
        }
        counts.add(collect(*s.sys, *s.runtime));
        {
            Scope sc(log, "apps.validate", &ph.validate);
            s.sys->mem().drainAll();
            o.valid = s.app->validate(*s.sys);
        }
        if (auto *chk = s.sys->mem().checker())
            o.violations = chk->totalViolations();
    } catch (const fault::SimFailure &f) {
        o.simFailure = true;
        std::fprintf(stderr, "perfbench: %s: %s\n", spec.key().c_str(),
                     f.what());
    }
    return o;
}

double
setupOnly(const bench::RunSpec &spec, bool lifecycle)
{
    Phases ph;
    Sim s = construct(spec, lifecycle, nullptr, ph);
    return ph.setup(); // evaluated before the teardown of s
}

} // namespace perfbench
