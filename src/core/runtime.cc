#include "core/runtime.hh"

#include "common/log.hh"
#include "core/steal.hh"
#include "core/worker.hh"
#include "fault/failure.hh"
#include "sim/system.hh"

namespace bigtiny::rt
{

const char *
schedVariantName(SchedVariant v)
{
    switch (v) {
      case SchedVariant::Baseline:
        return "baseline";
      case SchedVariant::Hcc:
        return "hcc";
      case SchedVariant::Dts:
        return "dts";
    }
    return "?";
}

SchedVariant
Runtime::defaultVariant(const sim::SystemConfig &cfg)
{
    if (cfg.dts)
        return SchedVariant::Dts;
    if (cfg.tinyProtocol != sim::Protocol::MESI) {
        for (auto k : cfg.cores) {
            if (k == sim::CoreKind::Tiny)
                return SchedVariant::Hcc;
        }
    }
    return SchedVariant::Baseline;
}

Runtime::Runtime(sim::System &sys, SchedVariant variant)
    : variant(variant), sys(sys), cfg(sys.config()),
      eventTracer(sys.tracer()), intervalSampler(sys.sampler())
{
    auto &arena = sys.arena();
    int n = sys.numCores();
    deques.reserve(n);
    for (int w = 0; w < n; ++w) {
        deques.push_back(
            std::make_unique<TaskDeque>(arena, cfg.dequeCapacity));
        mailboxes.push_back(arena.allocLines(lineBytes));
        rngs.emplace_back(cfg.seed * 0x9e3779b9ull + w + 1);
    }
    doneA = arena.allocLines(lineBytes);
    for (int w = 0; w < n; ++w)
        workers.push_back(
            std::make_unique<Worker>(*this, sys.core(w), w));
    policy = std::make_unique<RandomSteal>();
    if (cfg.trackLifecycle)
        lifeTracker =
            std::make_unique<trace::LifecycleTracker>(cfg.numClusters());
    if (intervalSampler) // per-cluster steal columns
        intervalSampler->trackStealClusters(cfg.numClusters());
}

// Out of line: Worker and StealPolicy are incomplete in the header.
Runtime::~Runtime() = default;

void
Runtime::setStealPolicy(std::unique_ptr<StealPolicy> p)
{
    panic_if(!p, "setStealPolicy(nullptr)");
    panic_if(ran, "setStealPolicy after run()");
    policy = std::move(p);
}

void
Runtime::setStealPolicy(const std::string &name)
{
    setStealPolicy(makeStealPolicy(name));
}

Addr
Runtime::allocTaskFrame()
{
    Addr t = sys.arena().alloc(TaskLayout::frameBytes, lineBytes);
    if (auto *chk = sys.mem().checker())
        chk->frameAlloc(t, TaskLayout::frameBytes);
    return t;
}

void
Runtime::run(const std::function<void(Worker &)> &root)
{
    panic_if(ran, "Runtime::run may only be called once");
    ran = true;
    for (int w = 0; w < numWorkers(); ++w) {
        Worker *worker = workers[w].get();
        const auto *root_ptr = w == 0 ? &root : nullptr;
        sys.attachGuest(w, [worker, root_ptr](sim::Core &) {
            worker->guestMain(root_ptr);
        });
    }
    sys.run();

    // Post-run quiescence: task conservation must balance — every
    // spawned task executed, and every non-root task joined into its
    // parent exactly once. A mismatch means the deque, mailbox, or
    // join protocol lost or duplicated work; fail structurally rather
    // than report silently wrong statistics.
    auto total = totalStats();
    if (total.tasksSpawned != total.tasksExecuted ||
        total.tasksJoined + 1 != total.tasksExecuted ||
        executedTasks.size() != total.tasksExecuted) {
        sys.raiseFailure(
            fault::Verdict::Quiescence,
            fault::format("task conservation broken: %llu spawned, "
                          "%llu executed, %llu joined (+1 root), "
                          "%zu unique",
                          (unsigned long long)total.tasksSpawned,
                          (unsigned long long)total.tasksExecuted,
                          (unsigned long long)total.tasksJoined,
                          executedTasks.size()));
    }
}

sim::RuntimeStats
Runtime::totalStats() const
{
    sim::RuntimeStats agg;
    for (const auto &w : workers)
        agg.add(w->stats);
    return agg;
}

Runtime::Span::~Span()
{
    if (!open || !BT_TRACE_ON(rt.eventTracer, cat))
        return;
    Cycle now = rt.sys.core(wid).now();
    if (cat == trace::CatSteal)
        rt.eventTracer->complete(cat, wid, t0, now, "steal", "victim", arg,
                                 "got", got);
    else
        rt.eventTracer->complete(cat, wid, t0, now, "task", "frame", arg);
}

void
Runtime::taskEnqueued(Addr t, int wid)
{
    Cycle now = sys.core(wid).now();
    if (BT_TRACE_ON(eventTracer, trace::CatTask))
        eventTracer->instant(trace::CatTask, wid, now, "spawn", "frame",
                             t);
    if (BT_TRACE_ON(eventTracer, trace::CatFlow))
        eventTracer->flow(trace::CatFlow, wid, now, 's', "task-flow", t);
    if (lifeTracker)
        lifeTracker->onEnqueue(taskIndex(t), now);
    dequeDepth(wid, now);
}

Runtime::Span
Runtime::stealAttempted(int wid)
{
    if (intervalSampler)
        intervalSampler->stealAttempted(cfg.clusterOf(wid));
    return Span(*this, wid, trace::CatSteal, false, 0);
}

void
Runtime::taskStolen(Span &steal, Addr t, const std::vector<Addr> &extras)
{
    steal.got = true;
    int src = cfg.clusterOf(static_cast<CoreId>(steal.arg));
    int dst = cfg.clusterOf(steal.wid);
    Cycle now = sys.core(steal.wid).now();
    auto stolen = [&](Addr task) {
        if (lifeTracker)
            lifeTracker->onSteal(src, dst);
        if (BT_TRACE_ON(eventTracer, trace::CatFlow))
            eventTracer->flow(trace::CatFlow, steal.wid, now, 't',
                              "task-flow", task);
    };
    stolen(t);
    for (Addr e : extras)
        stolen(e);
}

Runtime::Span
Runtime::taskStarted(Addr t, DagProfiler::Idx idx, int wid,
                     bool dispatched)
{
    Cycle now = sys.core(wid).now();
    if (dispatched && BT_TRACE_ON(eventTracer, trace::CatFlow))
        eventTracer->flow(trace::CatFlow, wid, now, 'f', "task-flow", t);
    if (lifeTracker)
        lifeTracker->onStart(idx, now);
    return Span(*this, wid, trace::CatTask, dispatched, t);
}

void
Runtime::dequeDepth(int owner, Cycle now)
{
    if (!BT_TRACE_ON(eventTracer, trace::CatTask))
        return;
    TaskDeque &q = deque(owner);
    auto head = sys.mem().funcRead<uint64_t>(q.headAddr());
    auto tail = sys.mem().funcRead<uint64_t>(q.tailAddr());
    eventTracer->counter(trace::CatTask, owner, now, "deque-depth",
                         tail - head);
}

} // namespace bigtiny::rt
