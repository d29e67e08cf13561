/**
 * @file
 * Tests for the task-lifecycle observability subsystem (DESIGN.md
 * §16): log2-bucket histogram math, steal-locality attribution, the
 * critical-path task chain on a hand-built micro-DAG with known
 * work/span, the zero-perturbation guarantee (tracking on/off must
 * not change simulated cycles), byte-identity of the schemaVersion-2
 * stats document across repeated runs and sweep --jobs counts, the
 * v8 RunResult serialization round-trip, and the JSON reader that
 * btprof uses to load it all back.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/sweep.hh"
#include "common/json.hh"
#include "core/worker.hh"
#include "sim/system.hh"
#include "trace/exporter.hh"
#include "trace/lifecycle.hh"

using namespace bigtiny;
using common::JsonValue;
using common::parseJson;
using rt::DagProfiler;
using rt::Runtime;
using rt::Worker;
using trace::LatencyHist;
using trace::LifecycleTracker;

namespace
{

// ---------------------------------------------------------------
// LatencyHist
// ---------------------------------------------------------------

TEST(LatencyHist, BucketBounds)
{
    EXPECT_EQ(LatencyHist::bucketOf(0), 0);
    EXPECT_EQ(LatencyHist::bucketOf(1), 1);
    EXPECT_EQ(LatencyHist::bucketOf(2), 2);
    EXPECT_EQ(LatencyHist::bucketOf(3), 2);
    EXPECT_EQ(LatencyHist::bucketOf(4), 3);
    EXPECT_EQ(LatencyHist::bucketOf(1023), 10);
    EXPECT_EQ(LatencyHist::bucketOf(1024), 11);
    EXPECT_EQ(LatencyHist::bucketOf(~0ull), 64);

    EXPECT_EQ(LatencyHist::bucketLo(0), 0u);
    EXPECT_EQ(LatencyHist::bucketHi(0), 0u);
    EXPECT_EQ(LatencyHist::bucketLo(1), 1u);
    EXPECT_EQ(LatencyHist::bucketHi(1), 1u);
    EXPECT_EQ(LatencyHist::bucketLo(11), 1024u);
    EXPECT_EQ(LatencyHist::bucketHi(11), 2047u);
    EXPECT_EQ(LatencyHist::bucketLo(64), 1ull << 63);
    EXPECT_EQ(LatencyHist::bucketHi(64), ~0ull);

    // Every value lands inside its bucket's [lo, hi] range.
    for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 7ull, 8ull, 100ull,
                       65535ull, 1ull << 40, ~0ull}) {
        int b = LatencyHist::bucketOf(v);
        EXPECT_GE(v, LatencyHist::bucketLo(b)) << v;
        EXPECT_LE(v, LatencyHist::bucketHi(b)) << v;
    }
}

TEST(LatencyHist, Percentiles)
{
    LatencyHist h;
    EXPECT_EQ(h.percentile(50, 100), 0u); // empty

    h.add(1);
    h.add(2);
    h.add(3);
    h.add(100);
    EXPECT_EQ(h.count, 4u);
    EXPECT_EQ(h.sum, 106u);
    EXPECT_EQ(h.minV, 1u);
    EXPECT_EQ(h.maxV, 100u);
    // rank ceil(4 * 0.5) = 2 -> second smallest lives in bucket
    // [2, 3]; its inclusive upper bound is the answer.
    EXPECT_EQ(h.percentile(50, 100), 3u);
    // p99/p999 hit the top sample; the bucket bound [64, 127] clamps
    // to the observed max.
    EXPECT_EQ(h.percentile(99, 100), 100u);
    EXPECT_EQ(h.percentile(999, 1000), 100u);
}

TEST(LatencyHist, OrderInvariant)
{
    LatencyHist a, b;
    uint64_t vals[] = {5, 0, 123456, 17, 17, 3, 9000000000ull};
    for (uint64_t v : vals)
        a.add(v);
    for (int i = 6; i >= 0; --i)
        b.add(vals[i]);
    EXPECT_EQ(a.buckets, b.buckets);
    EXPECT_EQ(a.percentile(50, 100), b.percentile(50, 100));
    EXPECT_EQ(a.percentile(999, 1000), b.percentile(999, 1000));
}

// ---------------------------------------------------------------
// LifecycleTracker aggregation
// ---------------------------------------------------------------

TEST(LifecycleTracker, StealLocalityAndLatencies)
{
    // 2 clusters; steals are reported by victim and thief cluster.
    LifecycleTracker lt(2);

    // Task A (index 0): spawned in cluster 0, stolen within it, then
    // across to cluster 1, executed there.
    lt.onCreate();
    lt.onEnqueue(0, 12);
    lt.onSteal(0, 0); // local
    lt.onSteal(0, 1); // remote
    lt.onStart(0, 40);
    lt.onFinish(0, 100);

    // Task B (index 1): never enqueued (inline root): exec sample
    // only.
    lt.onCreate();
    lt.onStart(1, 5);
    lt.onFinish(1, 12);

    // An index never created (a corrupt frame) records nothing.
    lt.onStart(7, 50);
    lt.onFinish(7, 60);

    EXPECT_EQ(lt.numTasks(), 2u);
    EXPECT_EQ(lt.stealsLocal(), 1u);
    EXPECT_EQ(lt.stealsRemote(), 1u);
    EXPECT_EQ(lt.heat(0, 0), 1u); // victim cl 0 -> thief cl 0
    EXPECT_EQ(lt.heat(0, 1), 1u); // victim cl 0 -> thief cl 1
    EXPECT_EQ(lt.heat(1, 0), 0u);
    EXPECT_EQ(lt.heat(1, 1), 0u);

    // Sojourn: only task A was enqueued (100 - 12 = 88).
    EXPECT_EQ(lt.sojourn().count, 1u);
    EXPECT_EQ(lt.sojourn().sum, 88u);
    // Exec: both tasks (60 and 7).
    EXPECT_EQ(lt.exec().count, 2u);
    EXPECT_EQ(lt.exec().sum, 67u);
}

// ---------------------------------------------------------------
// Critical-path chain on a micro-DAG with known work/span
// ---------------------------------------------------------------

TEST(DagProfilerChain, MicroDagExactWorkSpan)
{
    // root: 10 insts, spawn a; 5 insts, spawn b; 5 insts, wait;
    //       7 insts, done.       a: 100 insts.   b: 50 insts.
    //
    //   work = 10 + 5 + 5 + 7 + 100 + 50          = 177
    //   span = max(20, 10 + 100, 15 + 50) + 7     = 117
    DagProfiler prof;
    auto root = prof.newTask(DagProfiler::none);
    prof.accrue(root, 10);
    auto a = prof.newTask(root);
    prof.accrue(root, 5);
    auto b = prof.newTask(root);
    prof.accrue(root, 5);

    prof.accrue(a, 100);
    prof.onTaskDone(a);
    prof.accrue(b, 50);
    prof.onTaskDone(b);

    prof.onWaitExit(root);
    prof.accrue(root, 7);
    prof.onTaskDone(root);

    EXPECT_EQ(prof.work(), 177u);
    EXPECT_EQ(prof.span(), 117u);
    EXPECT_EQ(prof.numTasks(), 3u);

    auto chain = prof.criticalChain();
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_EQ(chain[0].idx, root);
    EXPECT_EQ(chain[0].spawnPos, 0u);
    EXPECT_EQ(chain[0].pathInsts, 117u);
    EXPECT_EQ(chain[1].idx, a);
    EXPECT_EQ(chain[1].spawnPos, 10u);
    EXPECT_EQ(chain[1].pathInsts, 110u);
}

TEST(DagProfilerChain, SerialTaskIsOneLinkChain)
{
    DagProfiler prof;
    auto root = prof.newTask(DagProfiler::none);
    prof.accrue(root, 42);
    prof.onTaskDone(root);
    EXPECT_EQ(prof.span(), 42u);
    auto chain = prof.criticalChain();
    ASSERT_EQ(chain.size(), 1u);
    EXPECT_EQ(chain[0].pathInsts, 42u);
}

// ---------------------------------------------------------------
// End-to-end: zero perturbation + byte-identical stats documents
// ---------------------------------------------------------------

void
fibTask(Worker &w, Addr self)
{
    auto n = static_cast<int64_t>(w.arg(self, 0));
    Addr sum = w.arg(self, 1);
    if (n < 2) {
        w.st<int64_t>(sum, n);
        return;
    }
    Addr x = w.rt.sys.arena().alloc(8, 8);
    Addr y = w.rt.sys.arena().alloc(8, 8);
    Addr a = w.newTask(fibTask, {static_cast<uint64_t>(n - 1), x});
    Addr b = w.newTask(fibTask, {static_cast<uint64_t>(n - 2), y});
    w.setRefCount(2);
    w.spawn(a);
    w.spawn(b);
    w.wait();
    w.st<int64_t>(sum, w.ld<int64_t>(x) + w.ld<int64_t>(y));
}

sim::SystemConfig
fibConfig(bool lifecycle)
{
    sim::SystemConfig cfg;
    cfg.name = "lifecycle-test";
    cfg.meshRows = 2;
    cfg.meshCols = 4;
    cfg.cores.assign(8, sim::CoreKind::Tiny);
    cfg.tinyProtocol = sim::Protocol::GpuWB;
    cfg.dts = true;
    cfg.trackLifecycle = lifecycle;
    return cfg;
}

/** Run fib(9); returns {elapsed cycles, stats JSON document}. */
std::pair<Cycle, std::string>
runFib(bool lifecycle)
{
    sim::System sys(fibConfig(lifecycle));
    Runtime rt(sys);
    Addr result = sys.arena().alloc(8, 8);
    rt.run([&](Worker &w) {
        Addr t = w.newTask(fibTask, {9, result});
        w.setRefCount(1);
        w.spawn(t);
        w.wait();
    });
    std::ostringstream os;
    trace::writeRunStatsJson(os, sys, &rt, true, nullptr);
    return {sys.elapsed(), os.str()};
}

TEST(LifecycleEndToEnd, TrackingDoesNotPerturbCycles)
{
    auto [off, offDoc] = runFib(false);
    auto [on, onDoc] = runFib(true);
    EXPECT_EQ(off, on);
    // Off emits the golden-pinned version-1 document; on upgrades.
    EXPECT_NE(offDoc.find("\"schemaVersion\": 1"), std::string::npos);
    EXPECT_EQ(offDoc.find("\"lifecycle\""), std::string::npos);
    EXPECT_NE(onDoc.find("\"schemaVersion\": 2"), std::string::npos);
    EXPECT_NE(onDoc.find("\"lifecycle\""), std::string::npos);
}

TEST(LifecycleEndToEnd, StatsDocByteIdenticalAcrossRuns)
{
    auto [c1, d1] = runFib(true);
    auto [c2, d2] = runFib(true);
    EXPECT_EQ(c1, c2);
    EXPECT_EQ(d1, d2);

    // The document parses, and the aggregates satisfy their own
    // invariants: every spawned task finished, and observed
    // parallelism can never exceed available parallelism.
    JsonValue doc = parseJson(d1);
    const JsonValue &life = doc.at("lifecycle");
    EXPECT_EQ(life.at("tasks").asU64(),
              doc.at("dag").at("tasks").asU64());
    EXPECT_EQ(life.at("exec").at("count").asU64(),
              life.at("tasks").asU64());
    // Root runs inline: exactly one task has no sojourn sample.
    EXPECT_EQ(life.at("sojourn").at("count").asU64() + 1,
              life.at("tasks").asU64());
    const JsonValue &crit = life.at("critical");
    EXPECT_EQ(crit.at("work").asU64(),
              doc.at("dag").at("work").asU64());
    EXPECT_EQ(crit.at("span").asU64(),
              doc.at("dag").at("span").asU64());
    EXPECT_GE(crit.at("availableParallelism").asDouble(),
              crit.at("observedParallelism").asDouble());
    // Chain path decreases monotonically from the span.
    const auto &chain = crit.at("chain").arr;
    ASSERT_FALSE(chain.empty());
    EXPECT_EQ(chain[0].at("path").asU64(), crit.at("span").asU64());
    for (size_t i = 1; i < chain.size(); ++i)
        EXPECT_LE(chain[i].at("path").asU64(),
                  chain[i - 1].at("path").asU64());
    // Steal matrix total equals local + remote.
    const JsonValue &st = life.at("steals");
    uint64_t total = 0;
    for (const auto &row : st.at("matrix").arr)
        for (const auto &cell : row.arr)
            total += cell.asU64();
    EXPECT_EQ(total,
              st.at("local").asU64() + st.at("remote").asU64());
}

// ---------------------------------------------------------------
// v8 serialization round-trip
// ---------------------------------------------------------------

TEST(LifecycleSerialize, RoundTripWithMatrix)
{
    bench::RunResult r;
    r.valid = true;
    r.cycles = 123456;
    r.verdict = "-";
    r.work = 1000;
    r.span = 100;
    r.tasks = 42;
    r.lifeTasks = 42;
    r.sojournP50 = 7;
    r.sojournP99 = 511;
    r.sojournP999 = 1023;
    r.execP50 = 15;
    r.execP99 = 255;
    r.execP999 = 4095;
    r.stealsLocal = 5;
    r.stealsRemote = 11;
    r.stealClusters = 2;
    r.stealMatrix = {1, 2, 3, 4};

    std::string line = bench::serializeResult(r);
    bench::RunResult back;
    ASSERT_TRUE(bench::deserializeResult(line, back));
    EXPECT_EQ(back.lifeTasks, 42u);
    EXPECT_EQ(back.sojournP50, 7u);
    EXPECT_EQ(back.sojournP999, 1023u);
    EXPECT_EQ(back.execP99, 255u);
    EXPECT_EQ(back.stealsLocal, 5u);
    EXPECT_EQ(back.stealsRemote, 11u);
    EXPECT_EQ(back.stealClusters, 2u);
    EXPECT_EQ(back.stealMatrix, (std::vector<uint64_t>{1, 2, 3, 4}));
    // Re-serializing reproduces the identical line (farm payloads
    // must round-trip byte-exactly).
    EXPECT_EQ(bench::serializeResult(back), line);
}

TEST(LifecycleSerialize, RejectsTornMatrixHeader)
{
    bench::RunResult r;
    r.valid = true;
    r.verdict = "-";
    std::string line = bench::serializeResult(r);
    // A torn line claiming an absurd cluster count must be rejected,
    // not allocate a gigantic matrix.
    size_t pos = line.rfind(" 0");
    (void)pos;
    bench::RunResult back;
    std::string torn =
        line.substr(0, line.find_last_of(' ')) + " 99999999";
    EXPECT_FALSE(bench::deserializeResult(torn, back));
}

// ---------------------------------------------------------------
// Sweep JSON: identical across --jobs counts
// ---------------------------------------------------------------

std::string
tmpPath(const std::string &name)
{
    std::string p = testing::TempDir() + name;
    std::remove(p.c_str());
    return p;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(LifecycleSweep, JsonIdenticalAcrossJobs)
{
    std::vector<bench::RunSpec> specs;
    for (uint64_t seed : {1ull, 2ull, 3ull})
        specs.push_back(bench::RunSpec::forApp("cilk5-nq")
                            .config("bt-hcc-gwb-dts")
                            .n(5)
                            .grain(2)
                            .seed(seed));

    auto sweepTo = [&](int jobs, const std::string &path) {
        bench::ResultCache cache("", false);
        bench::Sweep sw(cache, jobs);
        sw.addAll(specs);
        auto results = sw.run();
        bench::writeSweepJson(path, specs, results);
    };
    std::string p1 = tmpPath("life_sweep_j1.json");
    std::string p4 = tmpPath("life_sweep_j4.json");
    sweepTo(1, p1);
    sweepTo(4, p4);
    std::string d1 = slurp(p1), d4 = slurp(p4);
    ASSERT_FALSE(d1.empty());
    EXPECT_EQ(d1, d4);

    // Rows carry the v8 lifecycle fields and a square matrix.
    JsonValue doc = parseJson(d1);
    EXPECT_EQ(doc.at("modelVersion").asU64(),
              (uint64_t)bench::modelVersion);
    for (const auto &run : doc.at("runs").arr) {
        EXPECT_GT(run.at("lifeTasks").asU64(), 0u);
        uint64_t ncl = run.at("stealClusters").asU64();
        EXPECT_EQ(run.at("stealMatrix").arr.size(), ncl);
    }
    std::remove(p1.c_str());
    std::remove(p4.c_str());
}

// ---------------------------------------------------------------
// JSON reader (common/json.hh)
// ---------------------------------------------------------------

TEST(JsonReader, ParsesScalarsAndNesting)
{
    JsonValue v = parseJson(
        " {\"a\": [1, -2.5, \"x\\n\", true, false, null], "
        "\"big\": 18446744073709551615, \"o\": {\"k\": 3}} ");
    ASSERT_TRUE(v.isObj());
    const JsonValue &a = v.at("a");
    ASSERT_TRUE(a.isArr());
    ASSERT_EQ(a.arr.size(), 6u);
    EXPECT_EQ(a.arr[0].asU64(), 1u);
    EXPECT_FALSE(a.arr[1].intExact);
    EXPECT_DOUBLE_EQ(a.arr[1].asDouble(), -2.5);
    EXPECT_EQ(a.arr[2].str, "x\n");
    EXPECT_TRUE(a.arr[3].boolean);
    EXPECT_FALSE(a.arr[4].boolean);
    EXPECT_TRUE(a.arr[5].isNull());
    // Counters above 2^53 survive exactly (doubles would not).
    EXPECT_EQ(v.at("big").asU64(), ~0ull);
    EXPECT_EQ(v.at("o").at("k").asU64(), 3u);
    EXPECT_EQ(v.find("missing"), nullptr);
    // jsonNumber() writes null for NaN; it reads back as NaN.
    EXPECT_TRUE(std::isnan(a.arr[5].asDouble()));
}

TEST(JsonReader, RejectsGarbage)
{
    EXPECT_THROW(parseJson(""), std::runtime_error);
    EXPECT_THROW(parseJson("{"), std::runtime_error);
    EXPECT_THROW(parseJson("{} trailing"), std::runtime_error);
    EXPECT_THROW(parseJson("[1,]"), std::runtime_error);
    EXPECT_THROW(parseJson("\"unterminated"), std::runtime_error);
    EXPECT_THROW(parseJson("nul"), std::runtime_error);
}

TEST(JsonReader, ReadsOwnStatsDocument)
{
    auto [cycles, doc] = runFib(true);
    (void)cycles;
    JsonValue v = parseJson(doc);
    EXPECT_EQ(v.at("schemaVersion").asU64(), 2u);
    EXPECT_EQ(v.at("config").at("name").str, "lifecycle-test");
}

} // namespace
