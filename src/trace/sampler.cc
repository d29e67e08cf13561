#include "trace/sampler.hh"

#include "common/log.hh"
#include "sim/system.hh"
#include "trace/exporter.hh"

namespace bigtiny::trace
{

namespace
{

/** Cumulative aggregate counters at one moment. */
Sample
snapshot(sim::System &sys, Cycle at)
{
    bool tiny_only = false;
    for (CoreId c = 0; c < sys.numCores(); ++c) {
        if (sys.core(c).kind() == sim::CoreKind::Tiny)
            tiny_only = true;
    }
    Sample s;
    s.cycle = at;
    auto cache = sys.aggregateCacheStats(tiny_only);
    s.l1Accesses = cache.accesses();
    s.l1Misses = cache.misses();
    s.invLines = cache.invLines;
    s.flushLines = cache.flushLines;
    auto cores = sys.aggregateCoreStats(tiny_only);
    for (size_t i = 0; i < sim::numTimeCats; ++i)
        s.timeByCat[i] = cores.timeByCat[i];
    const auto &noc = sys.mem().noc().stats();
    for (size_t i = 0; i < sim::numMsgClasses; ++i) {
        s.nocBytes[i] = noc.bytes[i];
        s.nocMsgs += noc.msgs[i];
    }
    const auto &uli = sys.uliNet().stats;
    s.uliReqs = uli.reqs;
    s.uliNacks = uli.nacks;
    s.uliHandlerCycles = uli.handlerCycles;
    return s;
}

Sample
delta(const Sample &cum, const Sample &prev)
{
    Sample d = cum;
    d.l1Accesses -= prev.l1Accesses;
    d.l1Misses -= prev.l1Misses;
    d.invLines -= prev.invLines;
    d.flushLines -= prev.flushLines;
    for (size_t i = 0; i < sim::numTimeCats; ++i)
        d.timeByCat[i] -= prev.timeByCat[i];
    for (size_t i = 0; i < sim::numMsgClasses; ++i)
        d.nocBytes[i] -= prev.nocBytes[i];
    d.nocMsgs -= prev.nocMsgs;
    d.uliReqs -= prev.uliReqs;
    d.uliNacks -= prev.uliNacks;
    d.uliHandlerCycles -= prev.uliHandlerCycles;
    return d;
}

} // namespace

IntervalSampler::IntervalSampler(Cycle interval)
    : period(interval), next(interval)
{
    panic_if(interval == 0, "IntervalSampler with period 0");
}

void
IntervalSampler::capture(sim::System &sys, Cycle at)
{
    Sample cum = snapshot(sys, at);
    Sample &row = rows.emplace_back(delta(cum, prev));
    row.clStealAtt.swap(stealAtt); // the next interval starts at zero
    row.clStealOk.swap(stealOk);
    trackStealClusters(static_cast<int>(row.clStealAtt.size()));
    prev = cum;
    lastCaptured = at;
}

void
IntervalSampler::sampleUpTo(sim::System &sys, Cycle now)
{
    while (next <= now) {
        capture(sys, next);
        next += period;
    }
}

void
IntervalSampler::finish(sim::System &sys)
{
    Cycle end = sys.elapsed();
    sampleUpTo(sys, end);
    // Partial trailing interval; idempotent when nothing advanced.
    if (end > lastCaptured)
        capture(sys, end);
}

void
IntervalSampler::writeCsv(std::ostream &os) const
{
    os << "cycle,l1_accesses,l1_misses,inv_lines,flush_lines";
    for (size_t i = 0; i < sim::numTimeCats; ++i)
        os << ",t_" << sim::timeCatName(static_cast<sim::TimeCat>(i));
    for (size_t i = 0; i < sim::numMsgClasses; ++i)
        os << ",noc_"
           << sim::msgClassName(static_cast<sim::MsgClass>(i));
    os << ",noc_msgs,uli_reqs,uli_nacks,uli_handler_cycles";
    size_t ncl = rows.empty() ? 0 : rows.front().clStealAtt.size();
    for (size_t i = 0; i < ncl; ++i)
        os << ",c" << i << "_steal_att,c" << i << "_steal_ok";
    os << '\n';
    for (const Sample &s : rows) {
        os << s.cycle << ',' << s.l1Accesses << ',' << s.l1Misses
           << ',' << s.invLines << ',' << s.flushLines;
        for (auto t : s.timeByCat)
            os << ',' << t;
        for (auto b : s.nocBytes)
            os << ',' << b;
        os << ',' << s.nocMsgs << ',' << s.uliReqs << ','
           << s.uliNacks << ',' << s.uliHandlerCycles;
        for (size_t i = 0; i < s.clStealAtt.size(); ++i)
            os << ',' << s.clStealAtt[i] << ',' << s.clStealOk[i];
        os << '\n';
    }
}

void
IntervalSampler::writeJson(std::ostream &os) const
{
    os << "{\n\"interval\": " << period << ",\n\"samples\": [\n";
    for (size_t r = 0; r < rows.size(); ++r) {
        const Sample &s = rows[r];
        os << "{\"cycle\":" << s.cycle
           << ",\"l1Accesses\":" << s.l1Accesses
           << ",\"l1Misses\":" << s.l1Misses
           << ",\"invLines\":" << s.invLines
           << ",\"flushLines\":" << s.flushLines << ",\"time\":";
        writeNamedCounts(os, s.timeByCat, sim::timeCatName);
        os << ",\"nocBytes\":";
        writeNamedCounts(os, s.nocBytes, sim::msgClassName);
        os << ",\"nocMsgs\":" << s.nocMsgs
           << ",\"uliReqs\":" << s.uliReqs
           << ",\"uliNacks\":" << s.uliNacks
           << ",\"uliHandlerCycles\":" << s.uliHandlerCycles;
        if (!s.clStealAtt.empty()) {
            os << ",\"clusterStealAttempts\":[";
            for (size_t i = 0; i < s.clStealAtt.size(); ++i)
                os << (i ? "," : "") << s.clStealAtt[i];
            os << "],\"clusterStealSuccesses\":[";
            for (size_t i = 0; i < s.clStealOk.size(); ++i)
                os << (i ? "," : "") << s.clStealOk[i];
            os << "]";
        }
        os << "}" << (r + 1 < rows.size() ? ",\n" : "\n");
    }
    os << "]\n}\n";
}

} // namespace bigtiny::trace
