#include "trace/exporter.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/runtime.hh"
#include "fault/failure.hh"
#include "sim/system.hh"
#include "trace/lifecycle.hh"

namespace bigtiny::trace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
jsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    os << buf;
}

namespace
{

void
writeCacheStats(std::ostream &os, const sim::CacheStats &c)
{
    os << "{\"loads\":" << c.loads
       << ",\"loadMisses\":" << c.loadMisses
       << ",\"stores\":" << c.stores
       << ",\"storeMisses\":" << c.storeMisses
       << ",\"amos\":" << c.amos << ",\"hitRate\":";
    jsonNumber(os, c.hitRate());
    os << ",\"invOps\":" << c.invOps << ",\"invLines\":" << c.invLines
       << ",\"flushOps\":" << c.flushOps
       << ",\"flushLines\":" << c.flushLines
       << ",\"evictions\":" << c.evictions
       << ",\"wbLines\":" << c.wbLines << "}";
}

void
writeLatencyHist(std::ostream &os, const LatencyHist &h)
{
    os << "{\"count\":" << h.count << ",\"sum\":" << h.sum
       << ",\"min\":" << (h.count ? h.minV : 0)
       << ",\"max\":" << h.maxV
       << ",\"p50\":" << h.percentile(50, 100)
       << ",\"p99\":" << h.percentile(99, 100)
       << ",\"p999\":" << h.percentile(999, 1000) << ",\"buckets\":[";
    bool first = true;
    for (int b = 0; b < LatencyHist::numBuckets; ++b) {
        if (!h.buckets[b])
            continue;
        os << (first ? "" : ",") << "[" << LatencyHist::bucketLo(b)
           << "," << LatencyHist::bucketHi(b) << ","
           << h.buckets[b] << "]";
        first = false;
    }
    os << "]}";
}

/** Longest critical-path chain serialized in full; DESIGN.md §16. */
constexpr size_t maxChainExport = 256;

void
writeLifecycle(std::ostream &os, sim::System &sys, rt::Runtime &rt,
               const LifecycleTracker &lt)
{
    os << "\"lifecycle\": {\"tasks\":" << lt.numTasks()
       << ",\"sojourn\":";
    writeLatencyHist(os, lt.sojourn());
    os << ",\"exec\":";
    writeLatencyHist(os, lt.exec());

    int ncl = lt.clusters();
    os << ",\"steals\":{\"local\":" << lt.stealsLocal()
       << ",\"remote\":" << lt.stealsRemote()
       << ",\"clusters\":" << ncl << ",\"matrix\":[";
    for (int s = 0; s < ncl; ++s) {
        os << (s ? "," : "") << "[";
        for (int d = 0; d < ncl; ++d)
            os << (d ? "," : "") << lt.heat(s, d);
        os << "]";
    }
    os << "]}";

    auto &prof = rt.profiler;
    auto chain = prof.criticalChain();
    os << ",\"critical\":{\"work\":" << prof.work()
       << ",\"span\":" << prof.span()
       << ",\"availableParallelism\":";
    jsonNumber(os, prof.parallelism());
    os << ",\"observedParallelism\":";
    jsonNumber(os, sys.elapsed()
                   ? static_cast<double>(prof.work()) / sys.elapsed()
                   : 0.0);
    os << ",\"length\":" << chain.size() << ",\"truncated\":"
       << (chain.size() > maxChainExport ? "true" : "false")
       << ",\"chain\":[";
    size_t n = std::min(chain.size(), maxChainExport);
    for (size_t i = 0; i < n; ++i) {
        os << (i ? "," : "") << "{\"task\":" << chain[i].idx
           << ",\"spawnPos\":" << chain[i].spawnPos
           << ",\"path\":" << chain[i].pathInsts << "}";
    }
    os << "]}},\n";
}

} // namespace

void
writeRunStatsJson(std::ostream &os, sim::System &sys, rt::Runtime *rt,
                  bool validated, const fault::FailureReport *failure)
{
    const sim::SystemConfig &cfg = sys.config();
    int big = 0;
    for (auto k : cfg.cores)
        big += k == sim::CoreKind::Big;
    bool tiny_only = big < cfg.numCores();

    // A run without lifecycle tracking emits the version-1 document
    // byte-for-byte (golden-pinned); the "lifecycle" section is the
    // only version-2 addition.
    LifecycleTracker *lt = rt ? rt->lifecycle() : nullptr;
    os << "{\n\"schemaVersion\": " << (lt ? statsSchemaVersion : 1)
       << ",\n";

    // Topology fields are emitted only for explicitly clustered /
    // banked configs so stats of the classic presets stay
    // byte-identical (golden-pinned) across this schema extension.
    bool clustered =
        cfg.clusterRows * cfg.clusterCols > 1 || cfg.l2Banks;
    os << "\"config\": {\"name\":\"" << jsonEscape(cfg.name)
       << "\",\"cores\":" << cfg.numCores() << ",\"bigCores\":" << big
       << ",\"tinyProtocol\":\"" << sim::protocolName(cfg.tinyProtocol)
       << "\",\"dts\":" << (cfg.dts ? "true" : "false")
       << ",\"seed\":" << cfg.seed;
    if (clustered) {
        os << ",\"mesh\":\"" << cfg.meshRows << "x" << cfg.meshCols
           << "\",\"clusters\":\"" << cfg.clusterRows << "x"
           << cfg.clusterCols << "\",\"l2Banks\":" << cfg.numBanks();
    }
    os << "},\n";

    os << "\"run\": {\"cycles\":" << sys.elapsed()
       << ",\"validated\":" << (validated ? "true" : "false")
       << ",\"failed\":" << (failure ? "true" : "false") << "},\n";

    if (rt) {
        auto &prof = rt->profiler;
        os << "\"dag\": {\"work\":" << prof.work()
           << ",\"span\":" << prof.span() << ",\"parallelism\":";
        jsonNumber(os, prof.parallelism());
        os << ",\"tasks\":" << prof.numTasks() << ",\"instsPerTask\":";
        jsonNumber(os, prof.instsPerTask());
        os << "},\n";
        auto rs = rt->totalStats();
        os << "\"runtime\": {\"variant\":\""
           << rt::schedVariantName(rt->variant)
           << "\",\"tasksSpawned\":" << rs.tasksSpawned
           << ",\"tasksExecuted\":" << rs.tasksExecuted
           << ",\"tasksJoined\":" << rs.tasksJoined
           << ",\"tasksStolen\":" << rs.tasksStolen
           << ",\"stealAttempts\":" << rs.stealAttempts
           << ",\"failedSteals\":" << rs.failedSteals << "},\n";
        if (lt)
            writeLifecycle(os, sys, *rt, *lt);
    } else {
        os << "\"dag\": null,\n\"runtime\": null,\n";
    }

    auto cache = sys.aggregateCacheStats(tiny_only);
    auto cores = sys.aggregateCoreStats(tiny_only);
    os << "\"tinyCores\": {\"cache\":";
    writeCacheStats(os, cache);
    os << ",\"time\":";
    writeNamedCounts(os, cores.timeByCat, sim::timeCatName);
    os << ",\"memOps\":" << cores.memOps << "},\n";

    auto &l2 = sys.mem().l2();
    os << "\"l2\": {\"hits\":" << l2.hits
       << ",\"misses\":" << l2.misses << "},\n";

    auto &dram = sys.mem().dram();
    os << "\"dram\": {\"accesses\":" << dram.accesses()
       << ",\"bytes\":" << dram.bytes()
       << ",\"queueCycles\":" << dram.queueCycles() << "},\n";

    const auto &noc = sys.mem().noc().stats();
    os << "\"noc\": {\"totalBytes\":" << noc.totalBytes()
       << ",\"hopTraversals\":" << noc.hopTraversals
       << ",\"msgs\":";
    writeNamedCounts(os, noc.msgs, sim::msgClassName);
    os << ",\"bytes\":";
    writeNamedCounts(os, noc.bytes, sim::msgClassName);
    os << "},\n";

    const auto &u = sys.uliNet().stats;
    os << "\"uli\": {\"reqs\":" << u.reqs << ",\"acks\":" << u.acks
       << ",\"nacks\":" << u.nacks << ",\"resps\":" << u.resps
       << ",\"hopTraversals\":" << u.hopTraversals
       << ",\"handlerCycles\":" << u.handlerCycles << "},\n";

    os << "\"perCore\": [\n";
    for (CoreId c = 0; c < sys.numCores(); ++c) {
        sim::Core &core = sys.core(c);
        os << "{\"id\":" << c << ",\"kind\":\""
           << (core.kind() == sim::CoreKind::Big ? "big" : "tiny")
           << "\"";
        if (clustered)
            os << ",\"cluster\":" << cfg.clusterOf(c);
        os << ",\"cycles\":" << core.now()
           << ",\"insts\":" << core.instCount() << ",\"time\":";
        writeNamedCounts(os, core.stats.timeByCat, sim::timeCatName);
        os << ",\"cache\":";
        writeCacheStats(os, sys.mem().l1(c).stats);
        os << "}" << (c + 1 < sys.numCores() ? ",\n" : "\n");
    }
    os << "],\n";

    const auto &faults = sys.injector().log();
    os << "\"faults\": [";
    for (size_t i = 0; i < faults.size(); ++i) {
        const fault::FaultEvent &e = faults[i];
        os << (i ? "," : "") << "{\"site\":\""
           << fault::faultSiteName(e.site)
           << "\",\"occurrence\":" << e.occurrence
           << ",\"core\":" << e.core << ",\"cycle\":" << e.cycle
           << ",\"detail\":" << e.detail << "}";
    }
    os << "],\n";

    if (failure) {
        os << "\"failure\": {\"verdict\":\""
           << fault::verdictName(failure->verdict)
           << "\",\"cycle\":" << failure->cycle << ",\"reason\":\""
           << jsonEscape(failure->reason)
           << "\",\"pendingEvents\":" << failure->pendingEvents
           << "}\n";
    } else {
        os << "\"failure\": null\n";
    }
    os << "}\n";
}

} // namespace bigtiny::trace
