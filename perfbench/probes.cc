/**
 * @file
 * Host-cost probes: each times one public primitive on a standalone
 * object — a Fiber ping-pong, EventQueue schedule + drain, and
 * MemorySystem::load address streams that hit the L1, hit the L2 or
 * miss to DRAM, plus cacheInvalidate / cacheFlush on GPU-WB. Each
 * probe reports the median of five repetitions, and the load streams
 * check from the cache statistics that they exercised the level they
 * target.
 */

#include <algorithm>
#include <cstdio>

#include "perfbench.hh"
#include "sim/event_queue.hh"
#include "sim/fiber.hh"
#include "sim/system.hh"

using namespace bigtiny;

namespace perfbench
{

namespace
{

constexpr int reps = 5;

CoreId
firstTiny(const sim::SystemConfig &cfg)
{
    for (CoreId c = 0; c < cfg.numCores(); ++c)
        if (cfg.cores[c] == sim::CoreKind::Tiny)
            return c;
    return 0;
}

double
probeFiber(SpanLog *log)
{
    Scope s(log, "probe.fiber");
    sim::Fiber f([] {
        for (;;)
            sim::Fiber::primary()->run();
    });
    constexpr int n = 200000;
    std::vector<double> ns;
    for (int r = 0; r < reps; ++r) {
        auto t0 = Clock::now();
        for (int i = 0; i < n; ++i)
            f.run(); // ping + pong = two switches
        ns.push_back(secondsSince(t0) * 1e9 / (2.0 * n));
    }
    return median(ns);
}

double
probeEvents(SpanLog *log, bool &ok)
{
    Scope s(log, "probe.event");
    sim::EventQueue q;
    uint64_t fired = 0;
    Cycle base = 0;
    constexpr int n = 1 << 16;
    constexpr Cycle window = 512;
    std::vector<double> ns;
    for (int r = 0; r < reps; ++r) {
        auto t0 = Clock::now();
        for (int i = 0; i < n; ++i)
            q.schedule(base + static_cast<Cycle>(i) * 7 % window,
                       [&fired] { ++fired; });
        q.runDue(base + window - 1);
        ns.push_back(secondsSince(t0) * 1e9 / n);
        base += window;
    }
    ok = ok && fired == static_cast<uint64_t>(n) * reps && q.empty();
    return median(ns);
}

/** One timed pass of loads over @p lines consecutive lines. */
double
loadPass(mem::MemorySystem &m, CoreId c, Addr base, uint64_t lines,
         Cycle &now)
{
    uint64_t v = 0;
    auto t0 = Clock::now();
    for (uint64_t i = 0; i < lines; ++i)
        now += m.load(c, now, base + i * lineBytes, &v, 8).lat;
    return secondsSince(t0);
}

struct StreamStats
{
    double ns = 0;
    double l1HitFrac = 0;
    double l2HitFrac = 0;
};

/**
 * Stream loads over @p lines lines, cyclically: one warm pass, then
 * @p reps timed repetitions of @p passes passes each.
 */
StreamStats
loadStream(sim::System &sys, CoreId c, uint64_t lines, int passes)
{
    auto &m = sys.mem();
    Addr base = sys.arena().allocLines(lines * lineBytes);
    Cycle now = 0;
    loadPass(m, c, base, lines, now);
    const auto l1Before = m.l1(c).stats;
    const uint64_t hitsBefore = m.l2().hits;
    const uint64_t missesBefore = m.l2().misses;
    std::vector<double> ns;
    for (int r = 0; r < reps; ++r) {
        double secs = 0;
        for (int p = 0; p < passes; ++p)
            secs += loadPass(m, c, base, lines, now);
        ns.push_back(secs * 1e9 / (static_cast<double>(lines) * passes));
    }
    const auto &l1 = m.l1(c).stats;
    double loads = static_cast<double>(l1.loads - l1Before.loads);
    double l1Misses =
        static_cast<double>(l1.loadMisses - l1Before.loadMisses);
    double l2Hits = static_cast<double>(m.l2().hits - hitsBefore);
    double l2Misses = static_cast<double>(m.l2().misses - missesBefore);
    StreamStats st;
    st.ns = median(ns);
    st.l1HitFrac = loads > 0 ? 1.0 - l1Misses / loads : 0.0;
    st.l2HitFrac =
        l2Hits + l2Misses > 0 ? l2Hits / (l2Hits + l2Misses) : 0.0;
    return st;
}

bool
expect(bool cond, const char *what, double frac)
{
    if (!cond)
        std::fprintf(stderr,
                     "perfbench: probe %s missed its target level "
                     "(fraction %.3f)\n",
                     what, frac);
    return cond;
}

} // namespace

ProbeResult
runProbes(const std::string &config, SpanLog *log)
{
    Scope all(log, "probes");
    ProbeResult r;
    r.fiberSwitchNs = probeFiber(log);
    r.eventNs = probeEvents(log, r.ok);
    if (!r.ok)
        std::fprintf(stderr, "perfbench: event probe lost events\n");

    {
        sim::System sys(sim::configByName(config));
        const auto &cfg = sys.config();
        CoreId c = firstTiny(cfg);
        uint64_t l1Lines = cfg.l1BytesOf(c) / lineBytes;
        uint64_t l2Lines = static_cast<uint64_t>(cfg.l2BankBytes) *
                           static_cast<uint64_t>(cfg.numBanks()) /
                           lineBytes;
        {
            // Half the L1: every set keeps its lines resident.
            Scope s(log, "probe.l1_hit");
            auto st = loadStream(sys, c, l1Lines / 2,
                                 static_cast<int>(400000 / l1Lines));
            r.l1HitNs = st.ns;
            r.ok &= expect(st.l1HitFrac > 0.99, "l1_hit", st.l1HitFrac);
        }
        {
            // 8x the L1 cycled through LRU sets: every load misses the
            // L1 and hits the (far larger) L2.
            Scope s(log, "probe.l2_hit");
            auto st = loadStream(sys, c, l1Lines * 8, 8);
            r.l2HitNs = st.ns;
            r.ok &= expect(st.l1HitFrac < 0.01, "l2_hit (l1)",
                           st.l1HitFrac);
            r.ok &= expect(st.l2HitFrac > 0.99, "l2_hit", st.l2HitFrac);
        }
        {
            // 2x the whole L2 cycled: every load misses to DRAM.
            Scope s(log, "probe.dram");
            auto st = loadStream(sys, c, l2Lines * 2, 1);
            r.dramNs = st.ns;
            r.ok &= expect(st.l2HitFrac < 0.01, "dram", st.l2HitFrac);
        }
    }

    {
        // Invalidate and flush act only on the software-centric
        // protocols; GPU-WB is the one that does both.
        Scope s(log, "probe.inv_flush");
        sim::System sys(sim::configByName("bt-hcc-gwb"));
        auto &m = sys.mem();
        CoreId c = firstTiny(sys.config());
        uint64_t lines = sys.config().l1BytesOf(c) / lineBytes / 2;
        Addr base = sys.arena().allocLines(lines * lineBytes);
        Cycle now = 0;
        uint64_t v = 1;
        const auto before = m.l1(c).stats;
        std::vector<double> invNs, flushNs;
        constexpr int rounds = 2000;
        for (int r2 = 0; r2 < reps; ++r2) {
            double inv = 0, flush = 0;
            const auto start = m.l1(c).stats;
            for (int k = 0; k < rounds; ++k) {
                for (uint64_t i = 0; i < lines; ++i)
                    now += m.store(c, now, base + i * lineBytes, &v, 8).lat;
                auto t0 = Clock::now();
                now += m.cacheFlush(c, now).lat;
                flush += secondsSince(t0);
                loadPass(m, c, base, lines, now);
                t0 = Clock::now();
                now += m.cacheInvalidate(c, now).lat;
                inv += secondsSince(t0);
            }
            const auto &st = m.l1(c).stats;
            uint64_t flushed = st.flushLines - start.flushLines;
            uint64_t dropped = st.invLines - start.invLines;
            flushNs.push_back(flushed ? flush * 1e9 / flushed : 0.0);
            invNs.push_back(dropped ? inv * 1e9 / dropped : 0.0);
        }
        const auto &st = m.l1(c).stats;
        uint64_t want = lines * rounds * reps;
        r.flushLineNs = median(flushNs);
        r.invLineNs = median(invNs);
        r.ok &= expect(st.flushLines - before.flushLines == want, "flush",
                       static_cast<double>(st.flushLines -
                                           before.flushLines) /
                           static_cast<double>(want));
        r.ok &= expect(st.invLines - before.invLines == want, "inv",
                       static_cast<double>(st.invLines - before.invLines) /
                           static_cast<double>(want));
    }
    return r;
}

} // namespace perfbench
