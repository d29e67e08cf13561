/**
 * @file
 * Regression suite for the hot-path overhaul (DESIGN.md section 12).
 *
 * The overhaul rebuilt the event queue (timing wheel), the ready
 * queue (calendar queue), the allocation story (bump/slab arenas,
 * inline closures) and the cache metadata layout (SoA planes, packed
 * tag planes, direct page table) under a byte-identity contract: the
 * simulated machine must be unchanged, bit for bit. Three layers of
 * pinning:
 *
 *  1. Byte identity — every golden scenario captured at the seed
 *     commit (tests/golden/) is re-simulated in-process and the
 *     --stats-json and --trace artifacts are hashed against
 *     MANIFEST.sha256. A second set pins the observer outputs the
 *     first one does not cover: task,steal,flow traces, --lifecycle
 *     stats documents with their btprof reports, and per-cluster
 *     --timeseries CSVs under hierarchical stealing.
 *  2. Ordering invariants — the timing-wheel event queue must run
 *     same-cycle events in schedule order even when handlers schedule
 *     more events for the current cycle, and overflow events that
 *     drift into the wheel window must still order by global sequence;
 *     the calendar ready queue must pop the lexicographic (time, id)
 *     minimum including overflow migration.
 *  3. Host-parallel identity — a sweep's results are independent of
 *     --jobs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.hh"
#include "bench/driver.hh"
#include "bench/sweep.hh"
#include "common/sha256.hh"
#include "core/worker.hh"
#include "sim/event_queue.hh"
#include "sim/ready_queue.hh"
#include "sim/system.hh"
#include "trace/exporter.hh"
#include "trace/trace.hh"

using namespace bigtiny;

namespace
{

std::string
goldenDir()
{
    return std::string(BIGTINY_SOURCE_DIR) + "/tests/golden";
}

/** MANIFEST.sha256 as artifact-name -> hex-digest. */
std::map<std::string, std::string>
loadManifest()
{
    std::ifstream in(goldenDir() + "/MANIFEST.sha256");
    std::map<std::string, std::string> m;
    std::string digest, name;
    while (in >> digest >> name)
        m[name] = digest;
    return m;
}

struct Scenario
{
    const char *name;
    const char *app;
    const char *config;
    int64_t n;
    int64_t grain;
};

// Mirrors tools/hotpath_fidelity.sh: 3 apps x 4 configs.
const Scenario kScenarios[] = {
    {"cilk5_mm_bt_mesi", "cilk5-mm", "bt-mesi", 64, 16},
    {"cilk5_mm_bt_hcc_dnv", "cilk5-mm", "bt-hcc-dnv", 64, 16},
    {"cilk5_mm_bt_hcc_gwb", "cilk5-mm", "bt-hcc-gwb", 64, 16},
    {"cilk5_mm_bt_hcc_gwb_dts", "cilk5-mm", "bt-hcc-gwb-dts", 64, 16},
    {"cilk5_nq_bt_mesi", "cilk5-nq", "bt-mesi", 7, 2},
    {"cilk5_nq_bt_hcc_dnv", "cilk5-nq", "bt-hcc-dnv", 7, 2},
    {"cilk5_nq_bt_hcc_gwb", "cilk5-nq", "bt-hcc-gwb", 7, 2},
    {"cilk5_nq_bt_hcc_gwb_dts", "cilk5-nq", "bt-hcc-gwb-dts", 7, 2},
    {"ligra_bfs_bt_mesi", "ligra-bfs", "bt-mesi", 512, 16},
    {"ligra_bfs_bt_hcc_dnv", "ligra-bfs", "bt-hcc-dnv", 512, 16},
    {"ligra_bfs_bt_hcc_gwb", "ligra-bfs", "bt-hcc-gwb", 512, 16},
    {"ligra_bfs_bt_hcc_gwb_dts", "ligra-bfs", "bt-hcc-gwb-dts", 512,
     16},
};

/**
 * One in-process run of a golden scenario, reproducing exactly what
 * `btsim --stats-json --trace --trace-categories=task,steal,uli`
 * writes (tools/btsim.cc writeArtifacts).
 */
void
runScenario(const Scenario &sc, std::string &stats_json,
            std::string &trace_json)
{
    bench::RunSpec spec = bench::RunSpec::forApp(sc.app)
                              .config(sc.config)
                              .n(sc.n)
                              .grain(sc.grain);
    sim::SystemConfig cfg = sim::configByName(spec.configName);
    cfg.traceCategories = trace::parseCategories("task,steal,uli");

    sim::System sys(cfg);
    auto app = apps::makeApp(spec.app, spec.params);
    app->setup(sys);
    rt::Runtime runtime(sys);
    runtime.run([&](rt::Worker &w) { app->runParallel(w); });
    sys.mem().drainAll();
    bool valid = app->validate(sys);

    std::ostringstream stats;
    trace::writeRunStatsJson(stats, sys, &runtime, valid, nullptr);
    stats_json = stats.str();

    ASSERT_NE(sys.tracer(), nullptr);
    std::ostringstream tr;
    sys.tracer()->writeJson(tr);
    trace_json = tr.str();
}

/**
 * Observer scenarios: one run with every task-event observer on,
 * reproducing `btsim --trace=<name>.flow.trace.json
 * --trace-categories=task,steal,flow --lifecycle
 * --stats-json=<name>.lifecycle.stats.json [--steal=...]
 * [--timeseries=<name>.timeseries.csv --sample-cycles=N]` followed by
 * `btprof <name>.lifecycle.stats.json > <name>.lifecycle.btprof.txt`
 * in the artifacts' directory. The three cover the DTS, Baseline and
 * Hcc scheduler variants; the clustered two batch-steal (hier).
 */
struct ObserverScenario
{
    const char *name;
    const char *app;
    const char *config;
    int64_t n;
    int64_t grain;
    const char *steal;   //!< steal policy, "" for the default
    Cycle sampleCycles;  //!< 0: no time series
};

const ObserverScenario kObserverScenarios[] = {
    {"cilk5_nq_bt_hcc_gwb_dts", "cilk5-nq", "bt-hcc-gwb-dts", 7, 2, "",
     0},
    {"cilk5_nq_mesi_2x2_hier", "cilk5-nq",
     "bt-0b64t@8x8/clusters=2x2/proto=mesi", 8, 2, "hier", 2000},
    {"ligra_bfs_gwb_2x2_hier", "ligra-bfs",
     "bt-0b64t@8x8/clusters=2x2/proto=gwb", 512, 16, "hier", 2000},
};

/** Artifact name -> contents for one observer scenario. */
std::map<std::string, std::string>
runObserverScenario(const ObserverScenario &sc)
{
    bench::RunSpec spec = bench::RunSpec::forApp(sc.app)
                              .config(sc.config)
                              .n(sc.n)
                              .grain(sc.grain);
    sim::SystemConfig cfg = sim::configByName(spec.configName);
    cfg.traceCategories = trace::parseCategories("task,steal,flow");
    cfg.trackLifecycle = true;
    cfg.sampleCycles = sc.sampleCycles;

    sim::System sys(cfg);
    auto app = apps::makeApp(spec.app, spec.params);
    app->setup(sys);
    rt::Runtime runtime(sys);
    if (*sc.steal)
        runtime.setStealPolicy(sc.steal);
    runtime.run([&](rt::Worker &w) { app->runParallel(w); });
    sys.mem().drainAll();
    bool valid = app->validate(sys);

    std::map<std::string, std::string> out;
    const std::string base = sc.name;
    std::ostringstream stats, tr;
    trace::writeRunStatsJson(stats, sys, &runtime, valid, nullptr);
    out[base + ".lifecycle.stats.json"] = stats.str();
    sys.tracer()->writeJson(tr);
    out[base + ".flow.trace.json"] = tr.str();
    if (sys.sampler()) {
        std::ostringstream ts;
        sys.sampler()->writeCsv(ts);
        out[base + ".timeseries.csv"] = ts.str();
    }

    // btprof prints the path it was given, so run it on a bare file
    // name from inside the directory holding the document.
    const std::string doc = base + ".lifecycle.stats.json";
    {
        std::ofstream f(testing::TempDir() + doc, std::ios::binary);
        f << out[doc];
    }
    std::string cmd = "cd '" + testing::TempDir() + "' && '" +
                      BIGTINY_BTPROF + "' '" + doc + "'";
    std::string report;
    if (FILE *p = ::popen(cmd.c_str(), "r")) {
        char buf[4096];
        size_t got;
        while ((got = std::fread(buf, 1, sizeof buf, p)) > 0)
            report.append(buf, got);
        EXPECT_EQ(::pclose(p), 0) << cmd;
    }
    std::remove((testing::TempDir() + doc).c_str());
    out[base + ".lifecycle.btprof.txt"] = report;
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// 1. Byte identity against the seed goldens
// ---------------------------------------------------------------------

TEST(HotpathFidelity, AllGoldenScenariosByteIdentical)
{
    auto manifest = loadManifest();
    ASSERT_EQ(manifest.size(), 35u)
        << "tests/golden/MANIFEST.sha256 missing or truncated";

    for (const auto &sc : kScenarios) {
        SCOPED_TRACE(sc.name);
        std::string stats_json, trace_json;
        runScenario(sc, stats_json, trace_json);
        if (HasFatalFailure())
            return;

        const std::string stats_name =
            std::string(sc.name) + ".stats.json";
        const std::string trace_name =
            std::string(sc.name) + ".trace.json";
        ASSERT_TRUE(manifest.count(stats_name));
        ASSERT_TRUE(manifest.count(trace_name));
        EXPECT_EQ(common::sha256Hex(stats_json), manifest[stats_name])
            << "stats artifact diverged from the seed golden";
        EXPECT_EQ(common::sha256Hex(trace_json), manifest[trace_name])
            << "trace artifact diverged from the seed golden";
    }
}

TEST(HotpathFidelity, ObserverArtifactsByteIdentical)
{
    auto manifest = loadManifest();
    size_t checked = 0;
    for (const auto &sc : kObserverScenarios) {
        SCOPED_TRACE(sc.name);
        for (const auto &[name, bytes] : runObserverScenario(sc)) {
            SCOPED_TRACE(name);
            ASSERT_TRUE(manifest.count(name));
            EXPECT_EQ(common::sha256Hex(bytes), manifest[name])
                << "observer artifact diverged from its golden";
            ++checked;
        }
    }
    EXPECT_EQ(checked, 11u);
}

// Determinism of the in-process harness itself: the same scenario
// twice in one process (static app registries, fiber pools, arenas all
// reused) must produce identical bytes.
TEST(HotpathFidelity, RepeatRunIsByteStable)
{
    std::string s1, t1, s2, t2;
    runScenario(kScenarios[4], s1, t1); // nq / bt-mesi, the cheapest
    runScenario(kScenarios[4], s2, t2);
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(t1, t2);
}

// ---------------------------------------------------------------------
// 2. Event-wheel ordering invariants
// ---------------------------------------------------------------------

// Same-cycle events run in schedule order, including events a handler
// schedules for the *current* cycle while it is being drained.
TEST(EventWheel, SameCycleHandlerScheduledOrder)
{
    sim::EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] {
        order.push_back(1);
        // Scheduled mid-drain for the cycle being drained: must run
        // after every event already queued for cycle 10.
        q.schedule(10, [&] { order.push_back(3); });
    });
    q.schedule(10, [&] { order.push_back(2); });
    q.runDue(10);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(q.empty());
}

// Scheduling "in the past" clamps to the drain cursor instead of time
// travel: the event runs at the next runDue.
TEST(EventWheel, PastScheduleClampsToCursor)
{
    sim::EventQueue q;
    std::vector<int> order;
    q.schedule(100, [&] {
        order.push_back(1);
        q.schedule(5, [&] { order.push_back(2); }); // t < cursor
    });
    q.runDue(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// An overflow event (scheduled > wheelSize ahead) that drifts into the
// wheel window still runs before later-scheduled same-cycle bucket
// events: global (cycle, seq) order.
TEST(EventWheel, OverflowBeforeBucketAtSameCycle)
{
    sim::EventQueue q;
    std::vector<int> order;
    const Cycle far = 5000; // > wheelSize from cursor 0 -> overflow
    q.schedule(far, [&] { order.push_back(1); });
    // Drain an intermediate event to advance the cursor until `far`
    // is inside the wheel window.
    q.schedule(4400, [&] { order.push_back(0); });
    q.runDue(4400);
    // Now 5000 - cursor < wheelSize: this lands in a bucket while the
    // earlier-scheduled event for the same cycle sits in overflow.
    q.schedule(far, [&] { order.push_back(2); });
    q.runDue(far);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------
// 2b. Ready-queue (calendar queue) pop order
// ---------------------------------------------------------------------

TEST(ReadyQueueOrder, LexicographicPopWithOverflowMigration)
{
    sim::ReadyQueue rq;
    rq.init(8);
    // Mixed bag: same-time ties (ordered by id), a far-future core
    // (overflow), and times inserted out of order.
    rq.insert(3, 100);
    rq.insert(1, 100);
    rq.insert(5, 7);
    rq.insert(0, 100000); // > wheelSize ahead -> overflow list
    rq.insert(2, 99);

    EXPECT_TRUE(rq.hasEarlierThan(8, 5));
    EXPECT_FALSE(rq.hasEarlierThan(7, 5)); // (7,5) is the minimum

    std::vector<std::pair<Cycle, CoreId>> popped;
    while (!rq.empty())
        popped.push_back(rq.popMin());

    const std::vector<std::pair<Cycle, CoreId>> want = {
        {7, 5}, {99, 2}, {100, 1}, {100, 3}, {100000, 0}};
    EXPECT_EQ(popped, want);
}

// ---------------------------------------------------------------------
// 3. Host-parallel sweep identity (--jobs invariance)
// ---------------------------------------------------------------------

namespace
{

void
expectSameResult(const bench::RunResult &a, const bench::RunResult &b)
{
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.work, b.work);
    EXPECT_EQ(a.span, b.span);
    EXPECT_EQ(a.tasks, b.tasks);
    EXPECT_EQ(a.steals, b.steals);
    EXPECT_EQ(a.stealAttempts, b.stealAttempts);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.invLines, b.invLines);
    EXPECT_EQ(a.flushLines, b.flushLines);
    EXPECT_EQ(a.tinyTime, b.tinyTime);
    EXPECT_EQ(a.nocBytes, b.nocBytes);
    EXPECT_EQ(a.uliReqs, b.uliReqs);
    EXPECT_EQ(a.uliNacks, b.uliNacks);
}

} // namespace

TEST(HotpathSweep, ResultsIndependentOfJobs)
{
    std::vector<bench::RunSpec> specs;
    for (uint64_t seed = 1; seed <= 4; ++seed)
        specs.push_back(bench::RunSpec::forApp("cilk5-nq")
                            .config("bt-mesi")
                            .n(6)
                            .grain(2)
                            .seed(seed));

    bench::ResultCache serialCache("", false);
    auto serial =
        bench::Sweep(serialCache, 1).addAll(specs).run();

    bench::ResultCache parallelCache("", false);
    auto parallel =
        bench::Sweep(parallelCache, 4).addAll(specs).run();

    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].key());
        expectSameResult(serial[i], parallel[i]);
    }
}
