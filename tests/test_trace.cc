/**
 * @file
 * Tests for the tracing/metrics subsystem (src/trace/): category
 * parsing, tracer filtering and JSON determinism, the zero-perturbation
 * guarantee (no observer — tracer, lifecycle tracker, interval sampler
 * or progress heartbeat — may change simulated cycle counts),
 * interval-sampler delta conservation including the per-cluster steal
 * columns, the heartbeat cadence, and the unified stats exporter.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/worker.hh"
#include "sim/system.hh"
#include "trace/exporter.hh"
#include "trace/sampler.hh"
#include "trace/trace.hh"

using namespace bigtiny;
using rt::Runtime;
using rt::Worker;
using sim::Protocol;
using sim::System;
using sim::SystemConfig;

namespace
{

SystemConfig
dtsConfig(uint32_t trace_cats, Cycle sample_cycles)
{
    SystemConfig cfg;
    cfg.name = "trace-test";
    cfg.meshRows = 2;
    cfg.meshCols = 4;
    cfg.cores.assign(8, sim::CoreKind::Tiny);
    cfg.tinyProtocol = Protocol::GpuWB;
    cfg.dts = true;
    cfg.traceCategories = trace_cats;
    cfg.sampleCycles = sample_cycles;
    return cfg;
}

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

/** Run fib(@p n) on @p sys with steal policy @p steal ("" for the
 *  default); returns the runtime's aggregate statistics. */
sim::RuntimeStats
runFibStats(System &sys, uint64_t n = 9, const char *steal = "")
{
    Runtime rt(sys);
    if (*steal)
        rt.setStealPolicy(steal);
    Addr result = sys.arena().alloc(8, 8);
    rt.run([&](Worker &w) {
        Addr t = w.newTask(fibTask, {n, result});
        w.setRefCount(1);
        w.spawn(t);
        w.wait();
    });
    return rt.totalStats();
}

/** Run fib(9) under @p cfg; returns the elapsed cycle count. */
Cycle
runFib(System &sys)
{
    runFibStats(sys);
    return sys.elapsed();
}

/** 16 tiny MESI cores in 2x2 clusters: hier stealing batch-steals
 *  across clusters, so every task-event kind fires. */
SystemConfig
clusteredConfig()
{
    return sim::configByName("bt-0b16t@4x4/clusters=2x2/proto=mesi");
}

/** Cycles of fib(11) with hier stealing on @p cfg. */
Cycle
clusteredCycles(const SystemConfig &cfg)
{
    System sys(cfg);
    runFibStats(sys, 11, "hier");
    return sys.elapsed();
}

} // namespace

TEST(TraceCategories, ParseAndRoundTrip)
{
    EXPECT_EQ(trace::parseCategories(""), trace::CatAll);
    EXPECT_EQ(trace::parseCategories("all"), trace::CatAll);
    EXPECT_EQ(trace::parseCategories("task"), trace::CatTask);
    EXPECT_EQ(trace::parseCategories("task,uli"),
              trace::CatTask | trace::CatUli);
    EXPECT_EQ(trace::parseCategories("fault,mem,coh"),
              trace::CatFault | trace::CatMem | trace::CatCoh);

    for (uint32_t mask : {uint32_t(trace::CatTask),
                          trace::CatSteal | trace::CatUli,
                          uint32_t(trace::CatAll)}) {
        EXPECT_EQ(trace::parseCategories(
                      trace::categoriesToString(mask)),
                  mask);
    }
    EXPECT_EQ(trace::parseCategories("flow"), trace::CatFlow);
    EXPECT_EQ(trace::categoriesToString(trace::CatAll),
              "task,steal,uli,mem,coh,fault,flow");
}

TEST(TraceCategories, EveryBitIsNamed)
{
    for (uint32_t b = 1; b <= trace::CatFlow; b <<= 1)
        EXPECT_STRNE(trace::catName(b), "?");
}

TEST(Tracer, RecordsOnlyWantedCategories)
{
    trace::Tracer tr(2, trace::CatTask | trace::CatUli);
    EXPECT_TRUE(tr.wants(trace::CatTask));
    EXPECT_FALSE(tr.wants(trace::CatMem));

    tr.instant(trace::CatTask, 0, 10, "spawn");
    tr.complete(trace::CatUli, 1, 20, 30, "uli-handler");
    tr.counter(trace::CatTask, 0, 40, "deque-depth", 3);
    EXPECT_EQ(tr.eventCount(), 3u);

    // Unwanted categories are dropped even when pushed directly.
    tr.instant(trace::CatMem, 0, 50, "l1-load-miss");
    tr.complete(trace::CatCoh, 1, 60, 70, "mesi-recall");
    EXPECT_EQ(tr.eventCount(), 3u);
}

TEST(Tracer, JsonIsDeterministicAndWellFormed)
{
    auto build = [] {
        trace::Tracer tr(2, trace::CatAll);
        tr.setTrackName(0, "core 0 (tiny)");
        tr.setTrackName(1, "network");
        tr.complete(trace::CatTask, 0, 5, 17, "task", "frame", 0x1000);
        tr.instant(trace::CatSteal, 0, 20, "spawn", "frame", 0x2000);
        tr.counter(trace::CatUli, 1, 25, "uli-inflight", 2);
        std::ostringstream os;
        tr.writeJson(os);
        return os.str();
    };
    std::string a = build();
    std::string b = build();
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(a.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(a.find("\"dur\":12"), std::string::npos);
    EXPECT_NE(a.find("\"name\":\"core 0 (tiny)\""), std::string::npos);
}

TEST(Tracer, BackwardsSpanClampsToZeroDuration)
{
    trace::Tracer tr(1, trace::CatAll);
    tr.complete(trace::CatTask, 0, 100, 90, "task");
    std::ostringstream os;
    tr.writeJson(os);
    EXPECT_NE(os.str().find("\"dur\":0"), std::string::npos);
}

TEST(TraceIntegration, DisabledTracingHasNoTracerAndSameCycles)
{
    System traced(dtsConfig(trace::CatAll, 0));
    ASSERT_NE(traced.tracer(), nullptr);
    Cycle traced_cycles = runFib(traced);
    EXPECT_GT(traced.tracer()->eventCount(), 0u);

    System plain(dtsConfig(0, 0));
    EXPECT_EQ(plain.tracer(), nullptr);
    EXPECT_EQ(plain.sampler(), nullptr);
    Cycle plain_cycles = runFib(plain);

    // Tracing is host-side only: identical model timing either way.
    EXPECT_EQ(traced_cycles, plain_cycles);
}

TEST(TraceIntegration, EveryObserverLeavesCyclesUnchanged)
{
    SystemConfig base = clusteredConfig();
    Cycle plain = clusteredCycles(base);

    SystemConfig traced = base;
    traced.traceCategories = trace::CatAll;
    EXPECT_EQ(clusteredCycles(traced), plain) << "trace";

    SystemConfig life = base;
    life.trackLifecycle = true;
    EXPECT_EQ(clusteredCycles(life), plain) << "lifecycle";

    SystemConfig sampled = base;
    sampled.sampleCycles = 500;
    EXPECT_EQ(clusteredCycles(sampled), plain) << "time series";

    SystemConfig all = traced;
    all.trackLifecycle = true;
    all.sampleCycles = 500;
    EXPECT_EQ(clusteredCycles(all), plain) << "all observers";
}

TEST(TraceIntegration, RunEmitsRuntimeAndUliEvents)
{
    System sys(dtsConfig(trace::CatAll, 0));
    runFib(sys);
    std::ostringstream os;
    sys.tracer()->writeJson(os);
    std::string json = os.str();
    for (const char *needle :
         {"\"name\":\"task\"", "\"name\":\"spawn\"",
          "\"name\":\"steal\"", "\"name\":\"deque-depth\"",
          "\"name\":\"uli-req\"", "\"name\":\"uli-handler\"",
          "\"name\":\"network\""})
        EXPECT_NE(json.find(needle), std::string::npos)
            << "missing " << needle;
}

TEST(TraceIntegration, IdenticalRunsProduceIdenticalJson)
{
    auto run = [] {
        System sys(dtsConfig(trace::CatAll, 0));
        runFib(sys);
        std::ostringstream os;
        sys.tracer()->writeJson(os);
        return os.str();
    };
    EXPECT_EQ(run(), run());
}

TEST(Sampler, DeltasSumToEndOfRunTotals)
{
    System sys(dtsConfig(0, 1000));
    ASSERT_NE(sys.sampler(), nullptr);
    Cycle end = runFib(sys);

    const auto &rows = sys.sampler()->samples();
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(rows.back().cycle, end);

    uint64_t accesses = 0, misses = 0, uli_reqs = 0, noc_bytes = 0;
    Cycle prev_cycle = 0;
    for (const auto &s : rows) {
        EXPECT_GT(s.cycle, prev_cycle); // strictly increasing
        prev_cycle = s.cycle;
        accesses += s.l1Accesses;
        misses += s.l1Misses;
        uli_reqs += s.uliReqs;
        for (auto b : s.nocBytes)
            noc_bytes += b;
    }
    auto cache = sys.aggregateCacheStats(true);
    EXPECT_EQ(accesses, cache.accesses());
    EXPECT_EQ(misses, cache.misses());
    EXPECT_EQ(uli_reqs, sys.uliNet().stats.reqs);
    EXPECT_EQ(noc_bytes, sys.mem().noc().stats().totalBytes());
}

TEST(Sampler, ClusterStealColumnsSumToRuntimeTotals)
{
    SystemConfig cfg = clusteredConfig();
    cfg.sampleCycles = 500;
    System sys(cfg);
    sim::RuntimeStats rs = runFibStats(sys, 11, "hier");
    ASSERT_GT(rs.stealAttempts, rs.failedSteals); // some steals landed

    // Columns are per-interval deltas, so they sum (mod 2^64, as an
    // in-flight attempt counts as ok until it fails) to the totals.
    uint64_t att = 0, ok = 0;
    for (const auto &s : sys.sampler()->samples()) {
        ASSERT_EQ(s.clStealAtt.size(), 4u);
        ASSERT_EQ(s.clStealOk.size(), 4u);
        for (size_t c = 0; c < 4; ++c) {
            att += s.clStealAtt[c];
            ok += s.clStealOk[c];
        }
    }
    EXPECT_EQ(att, rs.stealAttempts);
    EXPECT_EQ(ok, rs.stealAttempts - rs.failedSteals);

    std::ostringstream csv;
    sys.sampler()->writeCsv(csv);
    std::string header = csv.str().substr(0, csv.str().find('\n'));
    EXPECT_NE(header.find(",c3_steal_att,c3_steal_ok"),
              std::string::npos);
}

TEST(Sampler, SerialRunHasNoStealColumns)
{
    SystemConfig cfg = clusteredConfig();
    cfg.sampleCycles = 200;
    System sys(cfg);
    Addr a = sys.arena().alloc(8, 8);
    sys.attachGuest(0, [&](sim::Core &c) {
        for (int i = 0; i < 100; ++i)
            c.st<uint64_t>(a, c.ld<uint64_t>(a) + 1);
    });
    sys.run();
    ASSERT_FALSE(sys.sampler()->samples().empty());
    for (const auto &s : sys.sampler()->samples())
        EXPECT_TRUE(s.clStealAtt.empty());

    std::ostringstream csv, json;
    sys.sampler()->writeCsv(csv);
    sys.sampler()->writeJson(json);
    EXPECT_EQ(csv.str().find("steal"), std::string::npos);
    EXPECT_EQ(json.str().find("Steal"), std::string::npos);
}

TEST(Heartbeat, FiresOncePerBoundaryWithoutPerturbing)
{
    constexpr Cycle every = 2000;
    SystemConfig cfg = dtsConfig(0, 0);
    cfg.progressCycles = every;
    System sys(cfg);
    std::vector<Cycle> beats;
    sys.progressHook = [&](Cycle now) { beats.push_back(now); };
    Cycle end = runFib(sys);

    // One beat per boundary crossed, in order: the i-th beat is the
    // first check at or past boundary (i + 1) * every. The last
    // boundary may be crossed by a core's final step, after its last
    // check, so it can go unreported.
    ASSERT_FALSE(beats.empty());
    for (size_t i = 0; i < beats.size(); ++i)
        EXPECT_EQ(beats[i] / every, i + 1) << "beat " << i;
    EXPECT_LE(beats.size(), end / every);
    EXPECT_GE(beats.size() + 1, end / every);

    System plain(dtsConfig(0, 0));
    EXPECT_EQ(runFib(plain), end);
}

TEST(Sampler, CsvAndJsonAgreeOnRowCount)
{
    System sys(dtsConfig(0, 1000));
    runFib(sys);
    const auto &rows = sys.sampler()->samples();

    std::ostringstream csv;
    sys.sampler()->writeCsv(csv);
    size_t csv_lines = 0;
    for (char c : csv.str())
        csv_lines += c == '\n';
    EXPECT_EQ(csv_lines, rows.size() + 1); // header + one per sample

    std::ostringstream json;
    sys.sampler()->writeJson(json);
    size_t cycles_seen = 0;
    std::string j = json.str();
    for (size_t p = j.find("\"cycle\":"); p != std::string::npos;
         p = j.find("\"cycle\":", p + 1))
        ++cycles_seen;
    EXPECT_EQ(cycles_seen, rows.size());
}

TEST(Exporter, JsonNumberHandlesNonFinite)
{
    auto render = [](double v) {
        std::ostringstream os;
        trace::jsonNumber(os, v);
        return os.str();
    };
    EXPECT_EQ(render(0.75), "0.75");
    EXPECT_EQ(render(std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(render(std::numeric_limits<double>::infinity()), "null");
}

TEST(Exporter, JsonEscapeCoversControlCharacters)
{
    EXPECT_EQ(trace::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(trace::jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(Exporter, RunStatsJsonHasSchemaAndSections)
{
    System sys(dtsConfig(0, 0));
    Runtime rt(sys);
    Addr result = sys.arena().alloc(8, 8);
    rt.run([&](Worker &w) {
        Addr t = w.newTask(fibTask, {8, result});
        w.setRefCount(1);
        w.spawn(t);
        w.wait();
    });

    std::ostringstream os;
    trace::writeRunStatsJson(os, sys, &rt, true, nullptr);
    std::string j = os.str();
    for (const char *needle :
         {"\"schemaVersion\": 1", "\"config\":", "\"run\":",
          "\"dag\":", "\"runtime\":", "\"tinyCores\":", "\"l2\":",
          "\"dram\":", "\"noc\":", "\"uli\":", "\"perCore\":",
          "\"faults\":", "\"failure\": null"})
        EXPECT_NE(j.find(needle), std::string::npos)
            << "missing " << needle;
    EXPECT_EQ(j.find("nan"), std::string::npos);
}

TEST(Exporter, IdleRunSerializesHitRateAsNull)
{
    // A run that touches no memory has zero L1 accesses: the NaN
    // sentinel must serialize as null, never as bare NaN.
    SystemConfig cfg = dtsConfig(0, 0);
    cfg.dts = false;
    System sys(cfg);
    sys.attachGuest(0, [](sim::Core &c) { c.work(100); });
    sys.run();

    std::ostringstream os;
    trace::writeRunStatsJson(os, sys, nullptr, true, nullptr);
    std::string j = os.str();
    EXPECT_NE(j.find("\"hitRate\":null"), std::string::npos);
    EXPECT_EQ(j.find("nan"), std::string::npos);
    EXPECT_NE(j.find("\"dag\": null"), std::string::npos);
}
